"""Config parsing, trial running, artifact writing, reproducibility."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcs import (
    ConfigError,
    DelayModel,
    TrialError,
    generate_random_digraph,
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


def _pairs():
    return st.tuples(st.integers(0, 50), st.integers(0, 50)).map(lambda p: (min(p), max(p)))


def _initials(n: int):
    """Every initial-value kind, with per-node kinds sized for n nodes."""
    ints = st.lists(st.integers(1, 10**6), min_size=n, max_size=n).map(tuple)
    return st.one_of(
        st.builds(ExplicitInitial, y0=ints, z0=ints),
        st.builds(UniformInitial, y0_range=_pairs(), z0_range=_pairs()),
        st.builds(GenericInitial, alphas=ints, rhos=ints, literal=st.booleans()),
        st.builds(SchedulingInitial, workloads=ints, occupied=ints, capacity=ints),
        st.builds(FederatedInitial, dataset_sizes=ints, local_params=ints, literal=st.booleans()),
        st.builds(
            SchedulingUniformInitial,
            load_range=_pairs(),
            capacity_pattern=st.lists(st.integers(1, 500), min_size=1, max_size=4).map(tuple),
            occupied=st.integers(0, 20),
        ),
        st.builds(FederatedUniformInitial, size_range=_pairs(), param_range=_pairs()),
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
    return ExperimentConfig(
        mode="sync" if delay is None else draw(st.sampled_from(["sync", "async"])),
        graph=graph,
        initial=draw(_initials(n)),
        delay=delay,
        diameter_bound=draw(st.none() | st.integers(1, 10)),
        trials=draw(st.integers(1, 50)),
        seed=draw(st.integers(0, 2**40)),
        max_steps=draw(st.none() | st.integers(1, 10**6)),
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

    def test_bound_check_attached_when_epsilon_given(self):
        cfg = parse_config({**MINIMAL, "epsilon": 0.1, "seed": 2})
        res = run_one_trial(cfg, 0)
        assert res.completion_bound is not None
        assert res.within_bound is True

    def test_max_steps_defaults(self):
        from qcs.experiments import _trial_bound, _trial_max_steps

        plain = parse_config(MINIMAL)
        inst = build_trial_instance(plain, 0)
        assert _trial_max_steps(plain, inst) == 100_000
        with_eps = parse_config({**MINIMAL, "epsilon": 0.1})
        assert _trial_max_steps(with_eps, inst) == min(100 * _trial_bound(with_eps, inst), 100_000)
        pinned = parse_config({**MINIMAL, "max_steps": 321})
        assert _trial_max_steps(pinned, inst) == 321

    def test_epsilon_step_limit_is_capped(self, monkeypatch):
        from qcs import experiments
        from qcs.experiments import _trial_bound, _trial_max_steps

        cfg = parse_config({**MINIMAL, "epsilon": 0.1})
        inst = build_trial_instance(cfg, 0)
        assert 100 * _trial_bound(cfg, inst) > experiments.DEFAULT_MAX_STEPS
        assert _trial_max_steps(cfg, inst) == experiments.DEFAULT_MAX_STEPS
        # a trial that cannot finish under the ceiling is censored, not run on
        y0 = [100] + [1] * 9
        spread = {**MINIMAL, "initial": {"explicit": {"y0": y0, "z0": [1] * 10}}, "epsilon": 0.1}
        full = run_one_trial(parse_config(spread), 0)
        assert full.converged and full.termination_step > inst.graph.diameter
        monkeypatch.setattr(experiments, "DEFAULT_MAX_STEPS", full.termination_step - 1)
        capped = run_one_trial(parse_config(spread), 0)
        assert capped.censored and not capped.converged
        assert capped.steps_run == full.termination_step - 1
        assert capped.within_bound is False


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
