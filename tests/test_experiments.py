"""Config parsing, trial running, artifact writing, reproducibility."""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import multiprocessing
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qcs
from qcs import (
    ConfigError,
    DelayModel,
    Digraph,
    SchedulingInstance,
    TrialError,
    experiments,
    generate_random_digraph,
    make_scheduling_recovery,
    parse_config,
    run_experiment,
    run_one_trial,
)
from qcs.experiments import (
    ExperimentConfig,
    ExplicitInitial,
    FederatedInitial,
    FederatedUniformInitial,
    FileGraphSpec,
    GenericInitial,
    RandomGraphSpec,
    SchedulingInitial,
    SchedulingUniformInitial,
    UniformInitial,
    build_trial_instance,
    config_to_dict,
    fig1_config,
    fig2_grid,
    fig3_configs,
    run_sweep,
    run_trials,
    write_artifacts,
)


MINIMAL = {
    "mode": "sync",
    "graph": {"random": {"n": 10, "edge_prob": 0.5}},
    "initial": {"explicit": {"y0": [3] * 10, "z0": [1] * 10}},
}


class TestParseConfig:
    def test_minimal_with_defaults(self):
        cfg = parse_config(MINIMAL)
        assert cfg.mode == "sync"
        assert cfg.trials == 1
        assert cfg.seed == 0
        assert cfg.records_trajectory()  # single trial records by default

    def test_multi_trial_does_not_record_by_default(self):
        cfg = parse_config({**MINIMAL, "trials": 5})
        assert not cfg.records_trajectory()
        cfg = parse_config({**MINIMAL, "trials": 5, "record_trajectory": True})
        assert cfg.records_trajectory()

    def test_async_needs_delay(self):
        with pytest.raises(ConfigError, match="delay"):
            parse_config({**MINIMAL, "mode": "async"})

    def test_unknown_key_named(self):
        with pytest.raises(ConfigError, match="bogus"):
            parse_config({**MINIMAL, "bogus": 1})

    def test_unknown_initial_kind_named(self):
        with pytest.raises(ConfigError, match="initial"):
            parse_config({**MINIMAL, "initial": {"wavelet": {}}})

    def test_bad_delay_pmf_named(self):
        with pytest.raises(ConfigError, match="delay"):
            parse_config(
                {**MINIMAL, "mode": "async", "delay": {"max_delay": 2, "pmf": [0.9, 0.3]}}
            )

    def test_epsilon_range(self):
        with pytest.raises(ConfigError, match="epsilon"):
            parse_config({**MINIMAL, "epsilon": 1.5})

    def test_a_large_uniform_delay_is_parsed_without_building_its_row(self):
        source = {**MINIMAL, "mode": "async", "delay": {"max_delay": 1_000_000}, "max_steps": 1_000_000}
        tracemalloc.start()
        try:
            parse_config(source)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_file_source(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(MINIMAL), encoding="utf-8")
        assert parse_config(path).graph == RandomGraphSpec(n=10, edge_prob=0.5)

    def test_invalid_json_named(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ConfigError, match="invalid JSON"):
            parse_config(path)

    def test_round_trips_through_echo(self):
        cfg = parse_config({**MINIMAL, "trials": 3, "epsilon": 0.05})
        echoed = config_to_dict(cfg)
        again = parse_config({k: v for k, v in echoed.items() if v is not None})
        assert again.trials == 3
        assert again.epsilon == 0.05


def _uniform(y0_range, z0_range):
    return {"initial": {"uniform": {"y0_range": y0_range, "z0_range": z0_range}}}


def _fed(size_range, param_range):
    return {"initial": {"federated_uniform": {"size_range": size_range, "param_range": param_range}}}


def _sched(load_range, capacity_pattern, occupied=0):
    body = {"load_range": load_range, "capacity_pattern": capacity_pattern, "occupied": occupied}
    return {"initial": {"scheduling_uniform": body}}


class TestMalformedConfigs:
    """Bad input is refused at parse time by a ConfigError that names its key."""

    RANDOM = {"n": 10, "edge_prob": 0.5}

    @pytest.mark.parametrize(
        "source, match",
        [
            ({**MINIMAL, "trials": "x"}, r"^trials: expected an integer, got 'x'"),
            ({**MINIMAL, "graph": {"random": {**RANDOM, "n": "ten"}}}, r"^graph\.random\.n: "),
            ({**MINIMAL, "initial": {"explicit": {"y0": 5, "z0": [1] * 10}}}, r"^initial\.explicit\.y0: "),
            (
                {**MINIMAL, "initial": {"explicit": {"y0": ["a", 1, 1], "z0": [1] * 3}}},
                r"^initial\.explicit\.y0\[0\]: expected an integer",
            ),
            ({**MINIMAL, "mode": "async", "delay": 3}, r"^delay: expected an object"),
            ({**MINIMAL, "graph": {"random": 5}}, r"^graph\.random: expected an object"),
            ([MINIMAL], r"^config: expected an object"),
            ({**MINIMAL, "record_trajectory": "yes"}, r"^record_trajectory: expected true or false"),
        ],
    )
    def test_malformed_value_names_its_key(self, source, match):
        with pytest.raises(ConfigError, match=match):
            parse_config(source)

    def test_bare_nan_in_a_config_file_refused(self, tmp_path):
        # json reads a bare NaN as a float, so a config file can carry one
        path = tmp_path / "cfg.json"
        text = json.dumps({**MINIMAL, "mode": "async", "delay": {"max_delay": 2, "pmf": [0.5, 0.5]}})
        path.write_text(text.replace("0.5, 0.5", "NaN, 1.0"), encoding="utf-8")
        with pytest.raises(ConfigError, match=r"^delay: pmf entries must be finite"):
            parse_config(path)

    def test_missing_config_file_named(self, tmp_path):
        with pytest.raises(ConfigError, match=r"config file .*absent\.json: cannot read"):
            parse_config(tmp_path / "absent.json")

    @pytest.mark.parametrize(
        "override, key",
        [
            ({"graph": {"random": {**RANDOM, "max_retry": 1}}}, "graph.random.max_retry"),
            (
                {"initial": {"generic": {"alpha": [1] * 10, "rho": [2] * 10, "literl": True}}},
                "initial.generic.literl",
            ),
            ({"mode": "async", "delay": {"max_delay": 2, "pfm": [0.5, 0.5]}}, "delay.pfm"),
        ],
    )
    def test_unknown_nested_key_refused(self, override, key):
        with pytest.raises(ConfigError, match=f"^unknown config key '{key}'$"):
            parse_config({**MINIMAL, **override})

    @pytest.mark.parametrize(
        "override, match",
        [
            ({"graph": {"random": {**RANDOM, "max_retries": 0}}}, r"random\.max_retries: must be >= 1"),
            (_uniform([0, 5], [0, 5]), r"uniform\.z0_range: low end must be >= 1, got 0"),
            (_uniform([-1, 5], [1, 5]), r"uniform\.y0_range: low end must be >= 0, got -1"),
            (_uniform([5, 1], [1, 5]), r"uniform\.y0_range: low 5 exceeds high 1"),
            (_fed([0, 9], [1, 9]), r"federated_uniform\.size_range: low end must be >= 1"),
            (_fed([1, 9], [-2, 9]), r"federated_uniform\.param_range: low end must be >= 0"),
            (_sched([-1, 9], [5]), r"scheduling_uniform\.load_range: low end must be >= 0"),
            (_sched([1, 9], [5], occupied=-1), r"scheduling_uniform\.occupied: must be >= 0"),
            (_sched([1, 9], []), r"scheduling_uniform\.capacity_pattern: must not be empty"),
            (_sched([1, 9], [100, 0]), r"scheduling_uniform\.capacity_pattern: must be >= 1, got 0"),
            ({"max_steps": 0}, r"^max_steps: must be >= 1, got 0$"),
            ({"diameter_bound": 0}, r"^diameter_bound: must be >= 1, got 0$"),
            ({"seed": -1}, r"^seed: must be >= 0, got -1$"),
            (
                {"mode": "async", "delay": {"max_delay": 3}, "diameter_bound": 40_000},
                r"^diameter_bound: one vote window of 120000 steps exceeds the step cap of 100000$",
            ),
            ({"diameter_bound": 50, "max_steps": 49}, r"^diameter_bound: one vote window of 50 steps exceeds the step cap of 49$"),
            (
                {"mode": "async", "delay": {"max_delay": 200_000}},
                r"^delay\.max_delay: one vote window of 200000 steps exceeds the step cap of 100000$",
            ),
            ({"error_mode": "inverse"}, r"^error_mode: must be 'reciprocal' or 'direct', got 'inverse'$"),
            (
                {"mode": "async", "delay": {"max_delay": 2, "pmf": [float("nan"), 1.0]}},
                r"^delay: pmf entries must be finite",
            ),
            (
                {"mode": "async", "delay": {"max_delay": 2, "per_node_pmf": [[1.0, float("nan")]] * 10}},
                r"^delay: pmf entries must be finite",
            ),
        ],
    )
    def test_ranges_that_fail_mid_run_are_refused_up_front(self, override, match):
        with pytest.raises(ConfigError, match=match):
            parse_config({**MINIMAL, **override})

    @pytest.mark.parametrize(
        "initial, match",
        [
            ({"explicit": {"y0": [3] * 10, "z0": [1, 0] + [1] * 8}}, r"^initial\.explicit\.z0\[1\]: must be >= 1, got 0$"),
            ({"explicit": {"y0": [3] * 9 + [-4], "z0": [1] * 10}}, r"^initial\.explicit\.y0\[9\]: must be >= 0, got -4$"),
            ({"generic": {"alpha": [2, 1, 0] + [1] * 7, "rho": [5] * 10}}, r"^initial\.generic\.alpha\[2\]: must be >= 1, got 0$"),
            ({"generic": {"alpha": [1] * 10, "rho": [5] * 9 + [-1]}}, r"^initial\.generic\.rho\[9\]: must be >= 0, got -1$"),
            (
                {"generic": {"alpha": [1] * 10, "rho": [5, 0] + [5] * 8, "literal": True}},
                r"^initial\.generic\.rho\[1\]: must be >= 1 when literal, got 0$",
            ),
            (
                {"scheduling": {"workloads": [5] * 10, "occupied": [0] * 10, "capacity": [9] * 9 + [0]}},
                r"^initial\.scheduling\.capacity\[9\]: must be >= 1, got 0$",
            ),
            (
                {"scheduling": {"workloads": [5, -1] + [5] * 8, "occupied": [0] * 10, "capacity": [9] * 10}},
                r"^initial\.scheduling\.workloads\[1\]: must be >= 0, got -1$",
            ),
            (
                {"federated": {"dataset_sizes": [0] + [4] * 9, "local_params": [1] * 10}},
                r"^initial\.federated\.dataset_sizes\[0\]: must be >= 1, got 0$",
            ),
            (
                {"federated": {"dataset_sizes": [4] * 10, "local_params": [1, 2, -3] + [1] * 7}},
                r"^initial\.federated\.local_params\[2\]: must be >= 0, got -3$",
            ),
        ],
    )
    def test_per_node_values_that_fail_mid_run_are_refused_up_front(self, initial, match):
        with pytest.raises(ConfigError, match=match):
            parse_config({**MINIMAL, "initial": initial})
        # refused on a graph file too, where n is not known until a trial loads it
        with pytest.raises(ConfigError, match=match):
            parse_config({**MINIMAL, "graph": {"file": "absent.txt"}, "initial": initial})


def _pairs(low: int = 0):
    """Sorted inclusive ranges from `low` up, the lowest a kind accepts."""
    return st.tuples(st.integers(low, 50), st.integers(low, 50)).map(lambda p: (min(p), max(p)))


def _initials(n: int):
    """Every initial-value kind, with per-node kinds sized for n nodes."""
    ints = st.lists(st.integers(1, 10**6), min_size=n, max_size=n).map(tuple)
    return st.one_of(
        st.builds(ExplicitInitial, y0=ints, z0=ints),
        st.builds(UniformInitial, y0_range=_pairs(), z0_range=_pairs(1)),
        st.builds(GenericInitial, alpha=ints, rho=ints, literal=st.booleans()),
        st.builds(SchedulingInitial, workloads=ints, occupied=ints, capacity=ints),
        st.builds(FederatedInitial, dataset_sizes=ints, local_params=ints, literal=st.booleans()),
        st.builds(
            SchedulingUniformInitial,
            load_range=_pairs(),
            capacity_pattern=st.lists(st.integers(1, 500), min_size=1, max_size=4).map(tuple),
            occupied=st.integers(0, 20),
        ),
        st.builds(FederatedUniformInitial, size_range=_pairs(1), param_range=_pairs()),
    )


def _pmf(b: int):
    weights = st.lists(st.integers(1, 9), min_size=b, max_size=b)
    return weights.map(lambda w: tuple(v / sum(w) for v in w))


def _delays(n: int):
    """No delay, and every delay form: uniform, shared pmf, per-node table."""
    return st.integers(1, 4).flatmap(
        lambda b: st.one_of(
            st.none(),
            st.builds(DelayModel, max_delay=st.just(b)),
            st.builds(DelayModel, max_delay=st.just(b), pmf=_pmf(b)),
            st.builds(
                DelayModel,
                max_delay=st.just(b),
                per_node_pmf=st.lists(_pmf(b), min_size=n, max_size=n).map(tuple),
            ),
        )
    )


@st.composite
def experiment_configs(draw):
    n = draw(st.integers(2, 6))
    graph = draw(
        st.one_of(
            st.builds(
                RandomGraphSpec,
                n=st.just(n),
                edge_prob=st.floats(0.01, 1.0),
                max_retries=st.integers(1, 500),
            ),
            st.builds(FileGraphSpec, path=st.text("abc/._", min_size=1, max_size=12)),
        )
    )
    delay = draw(_delays(n))
    mode = "sync" if delay is None else draw(st.sampled_from(["sync", "async"]))
    diameter_bound = draw(st.none() | st.integers(1, 10))
    # a step cap below one vote window is refused at parse time
    window = (diameter_bound or 1) * (delay.max_delay if mode == "async" else 1)
    return ExperimentConfig(
        mode=mode,
        graph=graph,
        initial=draw(_initials(n)),
        delay=delay,
        diameter_bound=diameter_bound,
        trials=draw(st.integers(1, 50)),
        seed=draw(st.integers(0, 2**40)),
        max_steps=draw(st.none() | st.integers(window, 10**6)),
        epsilon=draw(st.none() | st.floats(0.001, 0.999)),
        record_trajectory=draw(st.none() | st.booleans()),
        error_mode=draw(st.sampled_from(["reciprocal", "direct"])),
        check_invariants=draw(st.booleans()),
    )


class TestReciprocalCurveNeedsMass:
    ZERO = {**MINIMAL, "initial": {"explicit": {"y0": [3] * 9 + [0], "z0": [1] * 10}}}

    def test_zero_explicit_mass_refused_when_a_curve_is_computed(self):
        with pytest.raises(ConfigError, match=r"error_mode: .*y0\[9\] is 0"):
            parse_config(self.ZERO)
        with pytest.raises(ConfigError, match="error_mode"):
            parse_config({**self.ZERO, "trials": 2, "record_trajectory": True})

    def test_accepted_in_direct_mode_or_without_a_curve(self):
        assert parse_config({**self.ZERO, "error_mode": "direct"}).records_trajectory()
        assert not parse_config({**self.ZERO, "trials": 2}).records_trajectory()
        assert not parse_config({**self.ZERO, "record_trajectory": False}).records_trajectory()


class TestConfigEcho:
    @given(experiment_configs())
    @settings(max_examples=200, deadline=None)
    def test_echo_round_trips_through_json(self, cfg):
        echoed = json.loads(json.dumps(config_to_dict(cfg)))
        assert parse_config(echoed) == cfg


class TestTrialBuilding:
    def test_uniform_initials_are_seed_deterministic(self):
        cfg = parse_config(
            {
                **MINIMAL,
                "initial": {"uniform": {"y0_range": [0, 100], "z0_range": [1, 10]}},
                "seed": 7,
            }
        )
        a = build_trial_instance(cfg, 0)
        b = build_trial_instance(cfg, 0)
        c = build_trial_instance(cfg, 1)
        assert a.y0 == b.y0 and a.z0 == b.z0
        assert a.graph.out_neighbors == b.graph.out_neighbors
        assert (a.y0, a.graph.out_neighbors) != (c.y0, c.graph.out_neighbors)

    def test_trial_seed_offsets_compose(self):
        cfg = parse_config(
            {**MINIMAL, "initial": {"uniform": {"y0_range": [0, 9], "z0_range": [1, 3]}}}
        )
        shifted = ExperimentConfig(**{**cfg.__dict__, "seed": cfg.seed + 5})
        assert build_trial_instance(cfg, 5).y0 == build_trial_instance(shifted, 0).y0

    def test_graph_file_spec(self, tmp_path):
        g = generate_random_digraph(6, 0.5, seed=3)
        path = tmp_path / "g.txt"
        g.save(path)
        cfg = parse_config(
            {
                "mode": "sync",
                "graph": {"file": str(path)},
                "initial": {"explicit": {"y0": [2] * 6, "z0": [1] * 6}},
            }
        )
        inst = build_trial_instance(cfg, 0)
        assert inst.graph.out_neighbors == g.out_neighbors

    def test_a_graph_file_is_read_and_measured_once_per_config(self, tmp_path, monkeypatch):
        path = tmp_path / "g.txt"
        generate_random_digraph(9, 0.4, seed=2).save(path)
        spec = {
            **MINIMAL,
            "graph": {"file": str(path)},
            "initial": {"uniform": {"y0_range": [0, 30], "z0_range": [1, 4]}},
            "trials": 4,
            "epsilon": 0.1,
        }
        loads, diameters = [], []
        load, diameter = Digraph.load.__func__, Digraph.diameter.func

        def counted_load(cls, p):
            loads.append(p)
            return load(cls, p)

        def counted_diameter(g):
            diameters.append(g)
            return diameter(g)

        counted = functools.cached_property(counted_diameter)
        counted.__set_name__(Digraph, "diameter")
        monkeypatch.setattr(Digraph, "load", classmethod(counted_load))
        monkeypatch.setattr(Digraph, "diameter", counted)
        serial = run_experiment(parse_config(spec), workers=1)
        # every trial and the bounds block's trial 0 share one graph
        assert len(loads) == 1 and len(diameters) == 1
        assert serial.results == run_experiment(parse_config(spec), workers=2).results

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork", reason="pool workers must inherit the patch")
    @pytest.mark.parametrize("workers", [1, 2])
    def test_an_epsilon_config_draws_each_trial_graph_once(self, workers, tmp_path, monkeypatch):
        # the bounds block is trial 0's own table, not a second build of
        # trial 0; draws are counted in a file, as pool workers are processes
        drawn = tmp_path / "drawn"
        generate = experiments.generate_random_digraph

        def counted(*args, **kwargs):
            with drawn.open("a") as fh:
                fh.write("x")
            return generate(*args, **kwargs)

        monkeypatch.setattr(experiments, "generate_random_digraph", counted)
        uniform = {"uniform": {"y0_range": [0, 30], "z0_range": [1, 4]}}
        cfg = parse_config({**MINIMAL, "initial": uniform, "trials": 3, "epsilon": 0.1})
        result = run_experiment(cfg, workers=workers)
        assert drawn.read_text() == "xxx"
        assert result.bounds_block == experiments.bounds_report(cfg)
        assert [r.bound_table is None for r in result.results] == [False, True, True]

    def test_a_graph_file_parsed_again_reads_the_new_file(self, tmp_path):
        path = tmp_path / "g.txt"
        old, new = generate_random_digraph(6, 0.5, seed=3), generate_random_digraph(7, 0.5, seed=4)
        old.save(path)
        uniform = {"uniform": {"y0_range": [0, 9], "z0_range": [1, 3]}}
        spec = {**MINIMAL, "graph": {"file": str(path)}, "initial": uniform}
        first = parse_config(spec)
        g = build_trial_instance(first, 0).graph
        assert g == old
        new.save(path)
        # the graph belongs to the config object that read it, not to its path
        assert build_trial_instance(first, 1).graph is g
        assert build_trial_instance(parse_config(spec), 0).graph == new

    def test_run_one_trial_runs_the_record_build_trial_instance_returns(self, tmp_path, monkeypatch):
        path = tmp_path / "g.txt"
        generate_random_digraph(6, 0.5, seed=3).save(path)
        explicit = {"explicit": {"y0": [2] * 6, "z0": [1] * 6}}
        cfg = parse_config({**MINIMAL, "graph": {"file": str(path)}, "initial": explicit, "epsilon": 0.2, "seed": 5})
        built, ran = [], []
        monkeypatch.setattr(
            experiments, "build_trial_instance", lambda c, t: built.append(build_trial_instance(c, t)) or built[-1]
        )
        monkeypatch.setattr(experiments, "run_sync", lambda run_cfg: ran.append(run_cfg) or qcs.run_sync(run_cfg))
        result = run_one_trial(cfg, 2)
        assert ran[0] is built[0]
        assert ran[0].max_steps == min(100 * result.completion_bound, 100_000)
        again = build_trial_instance(cfg, 2)
        assert again.graph is ran[0].graph
        assert dataclasses.replace(again, max_steps=ran[0].max_steps) == ran[0]
        assert (again.seed, again.diameter_bound, again.record_masses) == (7, None, True)

    def test_diameter_bound_below_sampled_diameter_names_both(self):
        cfg = parse_config({**MINIMAL, "diameter_bound": 1})
        g = build_trial_instance(cfg, 0).graph
        if g.diameter > 1:
            with pytest.raises(ValueError, match="diameter_bound=1"):
                run_one_trial(cfg, 0)

    def test_initial_length_must_match_graph(self, tmp_path):
        # a random graph's n is known when the config is built
        short = {"explicit": {"y0": [1, 2], "z0": [1, 1]}}
        with pytest.raises(ConfigError, match="initial"):
            parse_config({**MINIMAL, "initial": short})
        with pytest.raises(ConfigError, match="initial"):
            ExperimentConfig(
                mode="sync",
                graph=RandomGraphSpec(n=10, edge_prob=0.5),
                initial=ExplicitInitial(y0=(3,) * 10, z0=(1,) * 9),
            )
        # a graph file's n is only known once the trial loads it
        path = tmp_path / "g.txt"
        generate_random_digraph(5, 0.6, seed=1).save(path)
        cfg = parse_config({**MINIMAL, "graph": {"file": str(path)}, "initial": short})
        with pytest.raises(ConfigError, match="initial"):
            build_trial_instance(cfg, 0)


class TestTrialMaterialisationPin:
    """sha256 of what build_trial_instance hands each trial, on a random
    graph and on a graph file, for trials 0..9: y0, z0 and the scheduling
    recovery's value at estimate 3 (None for the other kinds).  Recorded
    while trials still carried that recovery as a hook, before the initial
    kinds moved onto their spec classes; any drift in draws, order or
    types shows."""

    INITIALS = {
        "explicit": {"explicit": {"y0": [3, 1, 4, 1, 5, 9, 2, 6], "z0": [1, 2, 1, 3, 1, 2, 1, 1]}},
        "uniform": {"uniform": {"y0_range": [0, 50], "z0_range": [1, 6]}},
        "generic": {"generic": {"alpha": [1, 2, 3, 1, 2, 3, 1, 2], "rho": [5, 0, 7, 2, 9, 4, 4, 1]}},
        "generic-literal": {
            "generic": {"alpha": [1, 2, 3, 1, 2, 3, 1, 2], "rho": [5, 1, 7, 2, 9, 4, 4, 1], "literal": True}
        },
        "scheduling": {
            "scheduling": {
                "workloads": [40, 10, 0, 25, 60, 5, 30, 20],
                "occupied": [0, 5, 0, 10, 0, 0, 20, 1],
                "capacity": [100, 300, 100, 200, 300, 100, 200, 50],
            }
        },
        "federated": {
            "federated": {
                "dataset_sizes": [10, 30, 5, 7, 12, 1, 9, 40],
                "local_params": [100, 200, 0, 50, 75, 3, 8, 60],
            }
        },
        "federated-literal": {
            "federated": {
                "dataset_sizes": [10, 30, 5, 7, 12, 1, 9, 40],
                "local_params": [100, 200, 1, 50, 75, 3, 8, 60],
                "literal": True,
            }
        },
        "scheduling_uniform": {
            "scheduling_uniform": {"load_range": [1, 100], "capacity_pattern": [100, 300, 200], "occupied": 2}
        },
        "federated_uniform": {"federated_uniform": {"size_range": [10, 100], "param_range": [1000, 100000]}},
    }
    PINS = {
        "explicit": "e89a2bcfa22f6e9c95e4372729d9c3fcefe7fda7655d9008fe26b972599f2138",
        "federated": "b062b9404835fd397e71e3bcc1e230163ec4be0410987fbdafc616fb96c3c0ce",
        "federated-literal": "99f22bb76992576789301d95add13d9906088217e3e9b034b534e2f972c65135",
        "federated_uniform": "79507f78c199c3d49f74f4ba2eff8e55e8de42a089eceea88b67193f9595214f",
        "generic": "0d5972240b90f6c88cbe171d3a457cc3dee95d6e1e326ed5c288ce146fed1d40",
        "generic-literal": "9bab30d459ea21506be8c98cf8324d51d2670a6a00b17ef27a10b5e7d213b04b",
        "scheduling": "4b329cd20429892d1895018089c0c1a0574286738b665f314df03953b94ca797",
        "scheduling_uniform": "a77ec6f782dacadf7e63ad0699823c28bb3e77cc315435092e029bccbdfbcc3d",
        "uniform": "117e05a58d625c2a33199d421bbfe2942af07384d9208b80be34b9962602923c",
    }

    @pytest.mark.parametrize("name", sorted(INITIALS))
    def test_trial_values_are_pinned(self, name, tmp_path):
        path = tmp_path / "g.txt"
        generate_random_digraph(8, 0.5, seed=5).save(path)
        h = hashlib.sha256()
        for graph in ({"random": {"n": 8, "edge_prob": 0.5}}, {"file": str(path)}):
            cfg = parse_config({"mode": "sync", "graph": graph, "initial": self.INITIALS[name], "seed": 21})
            spec = cfg.initial
            for t in range(10):
                inst = build_trial_instance(cfg, t)
                hook = None
                if name.startswith("scheduling"):
                    occupied = spec.occupied if name == "scheduling" else (spec.occupied,) * 8
                    recover = make_scheduling_recovery(SchedulingInstance((0,) * 8, occupied, capacity=inst.y0))
                    hook = [recover(j, 3) for j in range(8)]
                h.update(repr((t, inst.y0, inst.z0, hook)).encode())
        assert h.hexdigest() == self.PINS[name]


class TestParseTimeLengths:
    """With a random graph, n is known at parse time, so per-node tables are checked there."""

    ASYNC = {**MINIMAL, "mode": "async", "delay": {"max_delay": 2}}

    def test_per_node_pmf_row_count(self):
        delay = {"max_delay": 2, "per_node_pmf": [[0.5, 0.5]] * 2}
        with pytest.raises(ConfigError, match=r"delay.per_node_pmf: 2 rows for a graph with 10 nodes"):
            parse_config({**self.ASYNC, "delay": delay})
        ok = parse_config({**self.ASYNC, "delay": {**delay, "per_node_pmf": [[0.5, 0.5]] * 10}})
        assert len(ok.delay.per_node_pmf) == 10

    def test_generic_length(self):
        initial = {"generic": {"alpha": [1, 2, 3], "rho": [1, 1, 1]}}
        with pytest.raises(ConfigError, match=r"initial.generic.alpha: 3 values for a graph with 10 nodes"):
            parse_config({**MINIMAL, "initial": initial})

    def test_scheduling_length(self):
        initial = {"scheduling": {"workloads": [5] * 10, "occupied": [0] * 10, "capacity": [9] * 4}}
        with pytest.raises(ConfigError, match=r"initial.scheduling.capacity: 4 values"):
            parse_config({**MINIMAL, "initial": initial})

    def test_federated_length(self):
        initial = {"federated": {"dataset_sizes": [4, 5, 6], "local_params": [1, 2, 3]}}
        with pytest.raises(ConfigError, match=r"initial.federated.dataset_sizes: 3 values"):
            parse_config({**self.ASYNC, "initial": initial})


class TestRunners:
    def test_run_one_trial_contract(self):
        cfg = parse_config({**MINIMAL, "seed": 4})
        res = run_one_trial(cfg, 0)
        assert res.converged
        assert res.spread == 0
        assert res.estimate in (res.quotient_floor, res.quotient_ceil)
        assert res.error_series is not None
        assert res.error_series[0] in (0.0, 1.0)

    def test_a_scheduling_run_that_agrees_on_zero_completes(self):
        # the quotient 2/3 rounds down to 0, which no scheduling recovery
        # can divide by; a trial reports the estimate and recovers nothing
        cfg = parse_config({
            **MINIMAL,
            "graph": {"random": {"n": 2, "edge_prob": 1.0}},
            "initial": {"scheduling": {"workloads": [2, 0], "occupied": [0, 0], "capacity": [1, 1]}},
        })
        (res,) = run_experiment(cfg).results
        assert res.converged
        assert (res.estimate, res.quotient_floor, res.quotient_ceil) == (0, 0, 1)

    def test_parallel_equals_serial(self):
        cfg = parse_config(
            {
                **MINIMAL,
                "initial": {"uniform": {"y0_range": [0, 50], "z0_range": [1, 5]}},
                "trials": 6,
                "seed": 11,
            }
        )
        serial = run_trials(cfg, workers=1)
        parallel = run_trials(cfg, workers=2)
        assert [r.__dict__ for r in serial] == [r.__dict__ for r in parallel]

    def test_import_loads_no_process_pool(self):
        # only run_trials with workers > 1 needs the pool modules
        code = "import sys, qcs; print('multiprocessing' in sys.modules)"
        src = str(Path(qcs.__file__).resolve().parent.parent)
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                             env={**os.environ, "PYTHONPATH": src})
        assert out.stdout.strip() == "False"

    def test_bound_check_attached_when_epsilon_given(self):
        cfg = parse_config({**MINIMAL, "epsilon": 0.1, "seed": 2})
        res = run_one_trial(cfg, 0)
        assert res.completion_bound is not None
        assert qcs.trial_stats([res], bound=[res.completion_bound]).fraction_within_bound == 1.0

    def test_max_steps_defaults(self):
        from qcs.experiments import _trial_max_steps

        plain = parse_config(MINIMAL)
        assert _trial_max_steps(plain, None) == 100_000
        with_eps = parse_config({**MINIMAL, "epsilon": 0.1})
        bound = run_one_trial(with_eps, 0).completion_bound
        assert _trial_max_steps(with_eps, bound) == min(100 * bound, 100_000)
        pinned = parse_config({**MINIMAL, "max_steps": 321, "epsilon": 0.1})
        assert _trial_max_steps(pinned, bound) == 321

    def test_sync_bound_is_the_unit_delay_chain(self):
        from qcs import bounds

        # a sync trial runs unit delays, so a delay block in its config is not read
        uniform = {"uniform": {"y0_range": [0, 40], "z0_range": [1, 4]}}
        for seed in range(5):
            cfg = parse_config({**MINIMAL, "initial": uniform, "delay": {"max_delay": 4}, "epsilon": 0.05, "seed": seed})
            inst = build_trial_instance(cfg, 0)
            g = inst.graph
            tau = bounds.windows_for_confidence(0.05, g.diameter, g.max_out_degree)
            err = bounds.initial_state_error(inst.y0, bounds.target_quotient(inst.y0, inst.z0))
            assert run_one_trial(cfg, 0).completion_bound == bounds.completion_step_bound(err, g.n, tau, g.diameter)

    def test_bounds_refuse_a_diameter_bound_below_trial_0s_diameter(self):
        from qcs.experiments import bounds_report

        cfg = parse_config({**MINIMAL, "diameter_bound": 1, "epsilon": 0.1})
        assert build_trial_instance(cfg, 0).graph.diameter == 3
        with pytest.raises(ConfigError, match=r"^diameter_bound: 1 is below trial 0's diameter 3$"):
            bounds_report(cfg)
        # the trial itself still fails in the engine, with its own message
        with pytest.raises(TrialError, match=r"trial 0 .*diameter_bound=1 is below the true diameter 3"):
            run_experiment(cfg)
        assert "completion_step_bound" in bounds_report(parse_config({**MINIMAL, "diameter_bound": 3, "epsilon": 0.1}))

    def test_bounds_block_reports_only_the_delays_trials_run(self):
        from qcs.experiments import bounds_report

        uniform = {"uniform": {"y0_range": [0, 40], "z0_range": [1, 4]}}
        sync = {**MINIMAL, "initial": uniform, "epsilon": 0.1}
        block = bounds_report(parse_config(sync))
        assert "completion_step_bound_delayed" not in block
        # a sync trial runs unit delays whatever its delay block says
        assert bounds_report(parse_config({**sync, "delay": {"max_delay": 5}})) == block
        # at B = 1 the delayed half would repeat the sync half
        async_unit = {**sync, "mode": "async", "delay": {"max_delay": 1}}
        assert bounds_report(parse_config(async_unit)) == block
        delayed = bounds_report(parse_config({**async_unit, "delay": {"max_delay": 5}}))
        assert delayed["max_delay"] == 5 and delayed.items() > block.items()

    @pytest.mark.parametrize(
        "override",
        [
            # trial 0 draws a diameter-4 graph; a sync window runs 20,000 steps
            {},
            {"mode": "async", "delay": {"max_delay": 2}, "diameter_bound": 5000},
        ],
    )
    def test_bound_counts_the_windows_a_diameter_bound_runs(self, override):
        cfg = parse_config({
            "mode": "sync",
            "graph": {"random": {"n": 6, "edge_prob": 0.4}},
            "initial": {"uniform": {"y0_range": [0, 40], "z0_range": [1, 4]}},
            "diameter_bound": 20_000,
            "epsilon": 0.9,
            "seed": 4,
            "record_trajectory": False,
            **override,
        })
        window = cfg.diameter_bound * cfg.delay_model().max_delay
        res = run_experiment(cfg)
        (trial,) = res.results
        assert res.bounds_block["diameter"] == trial.diameter == 4
        assert trial.converged and trial.termination_step >= window
        assert res.stats.fraction_within_bound == 1.0
        assert trial.completion_bound >= window
        block = res.bounds_block
        assert block.get("completion_step_bound_delayed", block["completion_step_bound"]) == trial.completion_bound

    def test_epsilon_step_limit_is_capped(self, monkeypatch):
        from qcs import experiments
        from qcs.experiments import _trial_max_steps

        cfg = parse_config({**MINIMAL, "epsilon": 0.1})
        inst = build_trial_instance(cfg, 0)
        bound = run_one_trial(cfg, 0).completion_bound
        assert 100 * bound > experiments.DEFAULT_MAX_STEPS
        assert _trial_max_steps(cfg, bound) == experiments.DEFAULT_MAX_STEPS
        # a trial that cannot finish under the ceiling is censored, not run on
        y0 = [100] + [1] * 9
        spread = {**MINIMAL, "initial": {"explicit": {"y0": y0, "z0": [1] * 10}}, "epsilon": 0.1}
        full = run_one_trial(parse_config(spread), 0)
        assert full.converged and full.termination_step > inst.graph.diameter
        monkeypatch.setattr(experiments, "DEFAULT_MAX_STEPS", full.termination_step - 1)
        capped = run_one_trial(parse_config(spread), 0)
        assert capped.censored and not capped.converged
        assert capped.steps_run == full.termination_step - 1
        assert qcs.trial_stats([capped], bound=[capped.completion_bound]).fraction_within_bound == 0.0


class TestTrialFailures:
    # seeds 10 and 11 draw diameter-3 graphs, seed 12 a diameter-4 one,
    # so trial 2 is the one whose diameter bound is too small
    BAD_TRIAL = {
        **MINIMAL,
        "graph": {"random": {"n": 8, "edge_prob": 0.4}},
        "initial": {"uniform": {"y0_range": [0, 50], "z0_range": [1, 5]}},
        "diameter_bound": 3,
        "trials": 3,
        "seed": 10,
    }

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failing_trial_is_named(self, workers):
        cfg = parse_config(self.BAD_TRIAL)
        with pytest.raises(TrialError, match=r"trial 2 \(seed 12\).*diameter_bound=3") as info:
            run_trials(cfg, workers=workers)
        assert (info.value.trial, info.value.seed) == (2, 12)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_bad_explicit_on_a_graph_file_is_named(self, tmp_path, workers):
        path = tmp_path / "g.txt"
        generate_random_digraph(5, 0.6, seed=1).save(path)
        cfg = parse_config(
            {
                **MINIMAL,
                "graph": {"file": str(path)},
                "initial": {"explicit": {"y0": [1, 2, 3], "z0": [1, 1, 1]}},
                "trials": 2,
                "seed": 40,
            }
        )
        with pytest.raises(TrialError, match=r"trial 0 \(seed 40\).*ConfigError.*3 values"):
            run_experiment(cfg, workers=workers)


class TestArtifacts:
    def test_outcome_rows_match_trial_count(self, tmp_path):
        cfg = parse_config(
            {
                **MINIMAL,
                "initial": {"uniform": {"y0_range": [0, 40], "z0_range": [1, 4]}},
                "trials": 7,
                "seed": 3,
            }
        )
        res = run_experiment(cfg, out_dir=tmp_path, fmt="csv")
        lines = (tmp_path / "outcomes.csv").read_text().strip().splitlines()
        assert lines[0] == "trial,converged,steps,q_s,spread,censored"
        assert len(lines) == 1 + cfg.trials
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["stats"]["trials"] == 7
        assert summary["config"]["mode"] == "sync"
        assert "generated_at" in summary["meta"]

    def test_json_format(self, tmp_path):
        cfg = parse_config({**MINIMAL, "seed": 1})
        run_experiment(cfg, out_dir=tmp_path, fmt="json")
        rows = json.loads((tmp_path / "outcomes.json").read_text())
        assert len(rows) == 1 and rows[0]["converged"] == 1

    def test_error_series_written_for_recorded_trials(self, tmp_path):
        cfg = parse_config({**MINIMAL, "seed": 5})
        run_experiment(cfg, out_dir=tmp_path)
        lines = (tmp_path / "error_series.csv").read_text().strip().splitlines()
        assert lines[0] == "trial,k,e_k"
        assert len(lines) > 2

    def test_byte_identical_reruns(self, tmp_path):
        cfg = parse_config(
            {
                **MINIMAL,
                "initial": {"uniform": {"y0_range": [0, 60], "z0_range": [1, 6]}},
                "trials": 4,
                "seed": 9,
            }
        )
        run_experiment(cfg, out_dir=tmp_path / "a", workers=1)
        run_experiment(cfg, out_dir=tmp_path / "b", workers=2)
        assert (tmp_path / "a/outcomes.csv").read_bytes() == (tmp_path / "b/outcomes.csv").read_bytes()
        sa = json.loads((tmp_path / "a/summary.json").read_text())
        sb = json.loads((tmp_path / "b/summary.json").read_text())
        sa.pop("meta"), sb.pop("meta")  # timestamps confined to meta
        assert sa == sb

    def test_undefined_curve_is_truncated_and_counted(self, tmp_path):
        # trial 0 of this config starts with a node holding no mass, so
        # its reciprocal error curve is undefined from k = 0 on
        cfg = parse_config({
            "mode": "sync",
            "graph": {"random": {"n": 12, "edge_prob": 0.5}},
            "initial": {"uniform": {"y0_range": [0, 80], "z0_range": [1, 6]}},
            "trials": 3,
            "seed": 17,
            "record_trajectory": True,
        })
        res = run_experiment(cfg, out_dir=tmp_path)
        assert [r.error_series_truncated for r in res.results] == [True, False, False]
        assert res.results[0].error_series == ()
        assert all(r.error_series[0] == 1.0 for r in res.results[1:])
        rows = (tmp_path / "error_series.csv").read_text().strip().splitlines()[1:]
        assert {row.split(",")[0] for row in rows} == {"1", "2"}
        assert not any(word in row for row in rows for word in ("nan", "inf"))
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["stats"]["error_series_truncated"] == 1

    def test_bad_format_rejected(self, tmp_path):
        cfg = parse_config(MINIMAL)
        res = run_experiment(cfg)
        with pytest.raises(ConfigError, match="format"):
            write_artifacts(res, tmp_path, fmt="xml")


class TestArtifactPins:
    """sha256 of outcomes.csv and error_series.csv for three curve-recording configs.

    The bytes hold every trial's step count and agreed value and every
    point of its error curve, so a change to how runs are recorded or
    how the curve is computed must leave them unchanged.
    """

    CONFIGS = {
        "async-federated-direct": {
            "mode": "async",
            "graph": {"random": {"n": 20, "edge_prob": 0.5}},
            "initial": {"federated_uniform": {"size_range": [10, 100], "param_range": [1000, 100000]}},
            "delay": {"max_delay": 10},
            "error_mode": "direct",
            "record_trajectory": True,
            "trials": 3,
            "seed": 71,
        },
        "sync-scheduling-reciprocal": {
            "mode": "sync",
            "graph": {"random": {"n": 20, "edge_prob": 0.5}},
            "initial": {"scheduling_uniform": {"load_range": [1, 100], "capacity_pattern": [100, 300]}},
            "record_trajectory": True,
            "trials": 3,
            "seed": 72,
        },
        # trials 0, 1, 3, 4 and 5 reach a node holding no mass, so their
        # reciprocal curves stop before k = 1, 1, 5, 2 and 2; trial 2's is whole
        "truncating": {
            "mode": "sync",
            "graph": {"random": {"n": 8, "edge_prob": 0.5}},
            "initial": {"uniform": {"y0_range": [1, 3], "z0_range": [1, 6]}},
            "record_trajectory": True,
            "trials": 6,
            "seed": 73,
        },
    }
    PINS = {
        "async-federated-direct": (
            "3bcbf93502b9c951a26df93d603b560ab7e576507d5c8f3147c0798e2883b48e",
            "d058fbbad9945af23b3252b11374644e657ef4f68ab642fbf38ffd73f14591b5",
        ),
        "sync-scheduling-reciprocal": (
            "cd5343aaadfbef6443cd53ed0f60ebabf9be8e3d654cd06bfb58581ec4ae6496",
            "4dd6db28f438622e2a8bb63a713df55afff7a6ecf7c99fc57be337388f9d4f0a",
        ),
        "truncating": (
            "18c8025f68a6768e05f8317028aaffa279ba110169b3f8b1f9bd04d9428a3f16",
            "871654a525b2ecd6b964d997441e769345647d4885014fc4207a43bf8057b015",
        ),
    }

    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_artifact_bytes_are_pinned(self, tmp_path, name):
        res = run_experiment(parse_config(self.CONFIGS[name]), out_dir=tmp_path)
        if name == "truncating":
            assert [r.error_series_truncated for r in res.results] == [True, True, False, True, True, True]
        got = tuple(
            hashlib.sha256((tmp_path / f).read_bytes()).hexdigest()
            for f in ("outcomes.csv", "error_series.csv")
        )
        assert got == self.PINS[name]


class TestPresets:
    def test_fig1_shape(self):
        cfg = fig1_config(trials=3, seed=1)
        assert cfg.mode == "sync"
        assert isinstance(cfg.graph, RandomGraphSpec) and cfg.graph.n == 20
        inst = build_trial_instance(cfg, 0)
        assert set(inst.y0) <= {100, 300}
        assert all(1 <= z <= 100 for z in inst.z0)

    def test_fig3_matched_instances(self):
        cfgs = fig3_configs(trials=2, seed=3)
        a = build_trial_instance(cfgs["sync"], 1)
        b = build_trial_instance(cfgs["async"], 1)
        assert a.y0 == b.y0 and a.z0 == b.z0
        assert a.graph.out_neighbors == b.graph.out_neighbors
        assert cfgs["async"].delay.max_delay == 5

    def test_fig2_grid_cells(self):
        cells = fig2_grid(trials=2, seed=0)
        assert {(n, b) for n, b, _ in cells} == {
            (n, b) for n in (50, 100, 200, 300) for b in (5, 10, 15)
        }
        seeds = [cfg.seed for _, _, cfg in cells]
        assert len(set(seeds)) == len(seeds)

    def test_sweep_rows(self, tmp_path):
        cells = [
            (n, b, ExperimentConfig(
                mode="async",
                graph=RandomGraphSpec(n=n, edge_prob=0.6),
                initial=UniformInitial(y0_range=(0, 20), z0_range=(1, 3)),
                delay=__import__("qcs").DelayModel(max_delay=b),
                trials=2,
                seed=n + b,
            ))
            for n in (5, 8) for b in (2,)
        ]
        rows = run_sweep(cells, out_dir=tmp_path)
        assert len(rows) == 2
        text = (tmp_path / "sweep_summary.csv").read_text().splitlines()
        assert text[0].startswith("n,max_delay,trials")
        assert len(text) == 3
