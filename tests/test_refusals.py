"""Argument and config checks that no run or other test reaches.

Each row names one refused input and the exact error it gets, so a check
that stops firing, or fires with another message, shows.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

import numpy as np
import pytest

from qcs import (
    AsyncEngine,
    ConfigError,
    DelayModel,
    Digraph,
    FederatedInstance,
    GenericInstance,
    InvalidInstanceError,
    MassOverflowError,
    RunConfig,
    SchedulingInstance,
    SyncEngine,
    bounds,
    generate_random_digraph,
    is_strongly_connected,
    metrics,
    parse_config,
    protocol,
    run_one_trial,
    run_sync,
    run_trials,
)

from qcs.cli import load_scheduling_instance

from conftest import ring

MINIMAL = {
    "mode": "sync",
    "graph": {"random": {"n": 10, "edge_prob": 0.5}},
    "initial": {"explicit": {"y0": [3] * 10, "z0": [1] * 10}},
}


GENERIC = {"alpha": [1] * 10, "rho": [5] * 10}
FEDERATED = {"dataset_sizes": [4] * 10, "local_params": [1] * 10}
ZERO_Y0 = {"explicit": {"y0": [3, 0] + [3] * 8, "z0": [1] * 10}}


def config(**override):
    return lambda: parse_config({**MINIMAL, **override})


# delay pmfs under which the maximum delay B = 3 is never drawn
NEVER_MAX = {"max_delay": 3, "pmf": [0.5, 0.5, 0.0]}
NEVER_MAX_AT_3 = {"max_delay": 3, "per_node_pmf": [[0.2, 0.3, 0.5]] * 3 + [[0.5, 0.5, 0.0]] * 7}


def on_ring_file(**override):
    """Run, on a 3-ring edge-list file (D = 2), the 3-node config with `override`
    over two workers: a refusal before trial 0 is a ConfigError, not a TrialError."""
    def call():
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "ring.txt"
            ring(3).save(path)
            explicit = {"explicit": {"y0": [3, 4, 5], "z0": [1, 1, 1]}}
            run_trials(parse_config({**MINIMAL, "graph": {"file": str(path)}, "initial": explicit,
                                     "trials": 4, **override}), workers=2)
    return call


def engine(y0=(1, 2, 3, 4), z0=(1, 1, 1, 1), max_delay=1, **fields):
    """Build, and not step, an engine on a 4-ring: a refusal fires before step 1."""
    cfg = RunConfig(graph=ring(4), y0=y0, z0=z0, **fields)
    return lambda: AsyncEngine(cfg, DelayModel(max_delay)) if max_delay != 1 else SyncEngine(cfg)


REFUSALS = {
    "engine.fractional_y0": (engine(y0=[1.5, 2.7, 3.9, 0.2]), ValueError, "y0[0]=1.5 is not an integer"),
    "engine.fractional_z0": (engine(z0=[1, 1.5, 1, 1]), ValueError, "z0[1]=1.5 is not an integer"),
    "engine.string_y0": (engine(y0=[1, "2", 3, 4]), ValueError, "y0[1]='2' is not an integer"),
    "engine.bool_z0": (engine(z0=[1, 1, True, 1], max_delay=2), ValueError, "z0[2]=True is not an integer"),
    "engine.fractional_max_steps": (engine(max_steps=50.5), ValueError, "max_steps=50.5 is not an integer"),
    "engine.bool_max_steps": (engine(max_steps=True), ValueError, "max_steps=True is not an integer"),
    "engine.fractional_diameter_bound": (engine(diameter_bound=2.5), ValueError,
                                         "diameter_bound=2.5 is not an integer"),
    "engine.fractional_max_delay": (lambda: DelayModel(max_delay=2.0), ValueError,
                                    "max_delay=2.0 is not an integer"),
    "engine.bool_max_delay": (lambda: DelayModel(max_delay=True), ValueError, "max_delay=True is not an integer"),
    # the shared row would be refused on its own; a per-node table beside it is refused first
    "engine.pmf_beside_per_node_pmf": (lambda: DelayModel(max_delay=2, pmf=(5.0, -4.0, 7.0),
                                                          per_node_pmf=((0.5, 0.5),) * 3), ValueError,
                                       "give pmf or per_node_pmf, not both"),
    "bounds.delay_prob_zero": (lambda: bounds.visit_prob_bound_delayed(2, 2, 0), ValueError,
                               "min_max_delay_prob must be in (0, 1], got 0"),
    "bounds.delay_prob_above_one": (lambda: bounds.visit_prob_bound_delayed(2, 2, 1.5), ValueError,
                                    "min_max_delay_prob must be in (0, 1], got 1.5"),
    "bounds.no_tokens": (lambda: bounds.target_quotient([1, 2], [0, 0]), ValueError,
                         "total token count must be positive"),
    "bounds.start_outside": (lambda: bounds.token_walk_probability(ring(3), 3, 0, 1), ValueError,
                             "start/target must be node ids in 0..2"),
    "bounds.target_outside": (lambda: bounds.token_walk_probability(ring(3), 0, -1, 1), ValueError,
                              "start/target must be node ids in 0..2"),
    "bounds.negative_steps": (lambda: bounds.token_walk_probability(ring(3), 0, 0, -1), ValueError,
                              "steps must be >= 0, got -1"),
    "metrics.bound_per_outcome": (lambda: metrics.trial_stats([1, 2], [5]), ValueError,
                                  "trial_stats: 1 bounds for 2 outcomes"),
    "protocol.route_bounds_2d": (lambda: protocol.RouteStream(np.random.PCG64(0)).integers(0, [[2, 3]]),
                                 ValueError, "route bounds must be a 1-D array, got shape (1, 2)"),
    "digraph.no_retries": (lambda: generate_random_digraph(5, 0.5, seed=0, max_retries=0), ValueError,
                           "max_retries must be positive, got 0"),
    **{
        f"digraph.{kind}_id.{name}": (lambda build=build, rows=rows: build(rows), ValueError,
                                      f"node 0: out-neighbor id {rows[0][0]!r} is not an integer")
        for kind, rows in (("fractional", [[1.7], [0]]), ("bool", [[True], [0]]), ("string", [["1"], [0]]),
                           ("float_past_int64", [[1e30], [0]]))
        for name, build in (("digraph", lambda rows: Digraph(2, rows)), ("connectivity", is_strongly_connected))
    },
    "applications.scheduling_empty": (lambda: SchedulingInstance((), (), ()), InvalidInstanceError,
                                      "instance has no nodes"),
    "applications.scheduling_negative": (lambda: SchedulingInstance((1, -1), (0, 0), (1, 1)),
                                         InvalidInstanceError, "workloads[1]: must be >= 0, got -1"),
    "applications.federated_empty": (lambda: FederatedInstance((), ()), InvalidInstanceError,
                                     "instance has no nodes"),
    "applications.federated_negative": (lambda: FederatedInstance((1, 1), (0, -1)), InvalidInstanceError,
                                        "local_params[1]: must be >= 0, got -1"),
    "applications.generic_negative_rho": (lambda: GenericInstance((1, 1), (1, -1)), InvalidInstanceError,
                                          "rho[1]: must be >= 0, got -1"),
    "applications.scheduling_capacity": (lambda: SchedulingInstance((1, 1), (0, 0), (1, 0)), InvalidInstanceError,
                                         "capacity[1]: must be >= 1, got 0"),
    "applications.federated_dataset_size": (lambda: FederatedInstance((1, 0), (0, 0)), InvalidInstanceError,
                                            "dataset_sizes[1]: must be >= 1, got 0"),
    "applications.generic_alpha": (lambda: GenericInstance((1, 0), (1, 1)), InvalidInstanceError,
                                   "alpha[1]: must be >= 1, got 0"),
    "applications.generic_lengths": (lambda: GenericInstance((1,), (1, 2)), InvalidInstanceError,
                                     "alpha, rho: lengths differ"),
    "applications.generic_empty": (lambda: GenericInstance((), ()), InvalidInstanceError, "instance has no nodes"),
    "config.random_n_past_the_limit": (config(graph={"random": {"n": 16_385, "edge_prob": 0.5}}), ConfigError,
                                       "graph.random.n: must be <= 16384, got 16385: its n x n edge draw "
                                       "would take 2.00 GiB"),
    "config.random_n_of_the_failed_trial": (config(graph={"random": {"n": 30_000, "edge_prob": 0.5}}), ConfigError,
                                            "graph.random.n: must be <= 16384, got 30000: its n x n edge draw "
                                            "would take 6.71 GiB"),
    "config.edge_prob_zero": (config(graph={"random": {"n": 10, "edge_prob": 0}}), ConfigError,
                              "graph.random.edge_prob: must be in (0, 1], got 0.0"),
    "config.edge_prob_above_one": (config(graph={"random": {"n": 10, "edge_prob": 1.5}}), ConfigError,
                                   "graph.random.edge_prob: must be in (0, 1], got 1.5"),
    "config.one_value_range": (config(initial={"uniform": {"y0_range": [1], "z0_range": [1, 2]}}), ConfigError,
                               "initial.uniform.y0_range: expected a [low, high] integer pair"),
    "config.graph_without_kind": (config(graph={}), ConfigError,
                                  "graph: expected exactly one of 'random' or 'file'"),
    "config.graph_with_two_kinds": (config(graph={"random": {"n": 10, "edge_prob": 0.5}, "file": "g.txt"}),
                                    ConfigError, "graph: expected exactly one of 'random' or 'file'"),
    "config.unknown_graph_kind": (config(graph={"ring": {"n": 10}}), ConfigError,
                                  "graph: unknown graph kind 'ring'"),
    "config.initial_without_kind": (config(initial={}), ConfigError,
                                    "initial: expected exactly one initial-value kind"),
    "config.max_delay_never_drawn": (config(mode="async", delay=NEVER_MAX, epsilon=0.1), ConfigError,
                                     "delay.pmf: the maximum delay has probability 0; epsilon's bounds need it > 0"),
    "config.max_delay_never_drawn_at_node": (
        config(mode="async", delay=NEVER_MAX_AT_3, epsilon=0.1), ConfigError,
        "delay.per_node_pmf[3]: the maximum delay has probability 0; epsilon's bounds need it > 0"),
    # trial 0 draws a diameter-3 graph: a window of 3 * 40,000 steps
    "config.window_over_trial_cap": (lambda: run_one_trial(parse_config(
        {**MINIMAL, "mode": "async", "delay": {"max_delay": 40_000}}), 0), ConfigError,
        "delay.max_delay: one vote window of 120000 steps exceeds the step cap of 100000"),
    "config.sync_window_over_trial_cap": (lambda: run_one_trial(parse_config({**MINIMAL, "max_steps": 2}), 0),
                                          ConfigError, "max_steps: one vote window of 3 steps exceeds the step cap of 2"),
    "config.file_generic_lengths": (on_ring_file(initial={"generic": {"alpha": [1, 2], "rho": [3, 4, 5]}}),
                                    ConfigError, "initial.generic.alpha: 2 values for a graph with 3 nodes"),
    "config.file_per_node_pmf_rows": (on_ring_file(mode="async", delay={"max_delay": 2,
                                                                        "per_node_pmf": [[0.5, 0.5]] * 2}),
                                      ConfigError, "delay.per_node_pmf: 2 rows for a graph with 3 nodes"),
    "config.file_diameter_bound_below_d": (on_ring_file(diameter_bound=1), ConfigError,
                                           "diameter_bound: 1 is below the graph's diameter 2"),
    "config.file_window_over_max_steps": (on_ring_file(mode="async", delay={"max_delay": 3}, max_steps=5),
                                          ConfigError,
                                          "delay.max_delay: one vote window of 6 steps exceeds the step cap of 5"),
    "config.pmf_beside_per_node_pmf": (
        config(mode="async", delay={**NEVER_MAX_AT_3, "pmf": [0.2, 0.3, 0.5]}), ConfigError,
        "delay: give pmf or per_node_pmf, not both"),
    # a sync config ignores its delay in its runs, but the delay is still one model
    "config.sync_pmf_beside_per_node_pmf": (config(delay={**NEVER_MAX_AT_3, "pmf": [0.2, 0.3, 0.5]}), ConfigError,
                                            "delay: give pmf or per_node_pmf, not both"),
    "config.check_invariants_key": (config(check_invariants=False), ConfigError,
                                    "unknown config key 'check_invariants'"),
    "config.generic_literal_key": (config(initial={"generic": {**GENERIC, "literal": True}}), ConfigError,
                                   "unknown config key 'initial.generic.literal'"),
    "config.federated_literal_key": (config(initial={"federated": {**FEDERATED, "literal": False}}), ConfigError,
                                     "unknown config key 'initial.federated.literal'"),
    # one recorded trial inverts every y0 for its error curve
    "config.explicit_zero_y0_reciprocal": (config(initial=ZERO_Y0), ConfigError,
                                           "error_mode: 'reciprocal' inverts every node's state, but "
                                           "initial.explicit.y0[1] is 0; use 'direct'"),
    "config.no_mode": (lambda: parse_config({k: v for k, v in MINIMAL.items() if k != "mode"}), ConfigError,
                       "config: missing required key 'mode'"),
}


@pytest.mark.parametrize("name", sorted(REFUSALS))
def test_refused_with_its_message(name):
    call, error, message = REFUSALS[name]
    with pytest.raises(error) as info:
        call()
    assert info.type is error
    assert str(info.value) == message


def test_a_config_an_instance_file_and_an_instance_refuse_a_node_by_one_rule(tmp_path):
    nodes = {"workloads": [1, 1], "occupied": [0, 0], "capacity": [1, 0]}
    path = tmp_path / "inst.json"
    path.write_text(json.dumps({"nodes": [{"l": 1, "u": 0, "pi_max": c} for c in nodes["capacity"]]}))
    for call, error, name in (
        (config(initial={"scheduling": nodes}), ConfigError, "initial.scheduling.capacity[1]"),
        (lambda: load_scheduling_instance(path), ConfigError, f"instance file {path}: nodes[1].pi_max"),
        (lambda: SchedulingInstance(*nodes.values()), InvalidInstanceError, "capacity[1]"),
    ):
        with pytest.raises(error) as info:
            call()
        assert str(info.value) == f"{name}: must be >= 1, got 0"


def test_values_that_are_not_refusals():
    assert is_strongly_connected([]) is False
    assert (ring(3) == 3) is False
    assert repr(ring(3)) == "Digraph(n=3, edges=3)"


def test_integer_ids_of_every_kind_build_a_graph():
    rows = [np.array([1], dtype=np.uint8), [np.int64(2)], (0,)]
    assert Digraph(3, rows) == ring(3)
    assert is_strongly_connected(rows) is True


def test_integers_of_every_kind_are_engine_inputs():
    # numpy ints, and object arrays of ints, past int64 too
    big = np.array([2**70, 0, 0, 0], dtype=object)
    with pytest.raises(MassOverflowError):
        engine(y0=big)()
    run = RunConfig(graph=ring(4), y0=np.array([1, 2, 3, 4], dtype=object), z0=(np.int32(1),) * 4,
                    max_steps=np.int64(500), diameter_bound=np.uint8(3))
    assert run_sync(run).converged
    assert DelayModel(max_delay=np.int16(2)).max_delay == 2
    # a numpy array of another kind is refused at its first node
    for values in (np.ones(4), np.ones(4, dtype=bool)):
        with pytest.raises(ValueError, match=r"^y0\[0\]=.* is not an integer$"):
            engine(y0=values)()


def test_a_random_graph_at_the_size_limit_parses():
    uniform = {"uniform": {"y0_range": [0, 9], "z0_range": [1, 2]}}
    cfg = parse_config({**MINIMAL, "graph": {"random": {"n": 16_384, "edge_prob": 0.5}}, "initial": uniform})
    assert cfg.graph.n == cfg.graph.MAX_N == 16_384


def test_a_max_delay_never_drawn_needs_epsilon_and_delays_to_be_refused():
    # without epsilon no bound is asked for, and a sync run ignores its delay
    assert parse_config({**MINIMAL, "mode": "async", "delay": NEVER_MAX}).epsilon is None
    assert parse_config({**MINIMAL, "delay": NEVER_MAX_AT_3, "epsilon": 0.1}).mode == "sync"


def test_an_explicit_zero_y0_is_refused_only_for_a_recorded_reciprocal_curve():
    for override in ({"error_mode": "direct"}, {"record_trajectory": False}):
        assert parse_config({**MINIMAL, "initial": ZERO_Y0, **override}).initial.y0[1] == 0
