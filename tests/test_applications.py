"""Application mappings: scheduling and federated aggregation."""

from __future__ import annotations

import logging
from fractions import Fraction

import numpy as np
import pytest

from qcs import (
    CapacityExceededError,
    DelayModel,
    FederatedInstance,
    InvalidInstanceError,
    RunConfig,
    SchedulingInstance,
    federated_init,
    federated_recover,
    generate_random_digraph,
    generic_init,
    generic_optimum,
    make_scheduling_recovery,
    run_async,
    run_sync,
    scheduling_init,
    scheduling_utilizations,
    target_quotient,
)

from conftest import bidirectional_pair


TWO_SERVER = SchedulingInstance(workloads=(40, 40), occupied=(0, 0), capacity=(100, 300))


def recover_all(inst: SchedulingInstance, estimate: int) -> list[int]:
    """The per-node recovery hook applied at every node."""
    hook = make_scheduling_recovery(inst)
    return [hook(j, estimate) for j in range(inst.n)]


class TestSchedulingInit:
    def test_literal_mapping(self):
        y0, z0 = scheduling_init(TWO_SERVER)
        assert y0 == (100, 300)
        assert z0 == (40, 40)

    def test_capacity_exceeded_names_both_sides(self):
        inst = SchedulingInstance(workloads=(300, 300), occupied=(0, 0), capacity=(100, 300))
        with pytest.raises(CapacityExceededError, match="600.*400"):
            scheduling_init(inst)

    def test_idle_node_gets_one_token_with_warning(self, caplog):
        inst = SchedulingInstance(workloads=(0, 10), occupied=(0, 0), capacity=(50, 50))
        with caplog.at_level(logging.WARNING):
            y0, z0 = scheduling_init(inst)
        assert z0 == (1, 10)
        assert any("one token" in rec.message for rec in caplog.records)

    def test_instance_validation(self):
        with pytest.raises(InvalidInstanceError):
            SchedulingInstance(workloads=(1,), occupied=(0, 0), capacity=(10, 10))
        with pytest.raises(InvalidInstanceError):
            SchedulingInstance(workloads=(1, 1), occupied=(0, 0), capacity=(10, 0))


class TestSchedulingRecovery:
    def test_exact_two_server_case(self):
        # exact optimum: utilization 80/400 = 0.2, so 20 and 60 cycles
        assert TWO_SERVER.exact_ratio() == 5
        assert recover_all(TWO_SERVER, 5) == [20, 60]

    def test_full_protocol_run_recovers_exactly(self):
        y0, z0 = scheduling_init(TWO_SERVER)
        cfg = RunConfig(
            graph=bidirectional_pair(),
            y0=y0,
            z0=z0,
            seed=0,
            recovery=make_scheduling_recovery(TWO_SERVER),
        )
        out = run_sync(cfg)
        assert out.converged
        assert (out.final_estimate == 5).all()
        assert out.recovered_solution == [20, 60]

    def test_fully_occupied_node_without_demand(self):
        inst = SchedulingInstance(workloads=(0, 0), occupied=(100, 50), capacity=(100, 100))
        hook = make_scheduling_recovery(inst)
        # exact ratio 200/150 -> estimate 1: the saturated node sheds nothing it can use
        assert hook(0, int(inst.exact_ratio())) == hook(0, 1)
        inst2 = SchedulingInstance(workloads=(0, 40), occupied=(100, 0), capacity=(100, 300))
        est = 5  # 400 / 140 is not integral; pick the balanced level directly
        assert make_scheduling_recovery(inst2)(0, est) == 100 // 5 - 100  # negative: shed load, never clamped

    def test_zero_estimate_rejected(self):
        with pytest.raises(InvalidInstanceError):
            make_scheduling_recovery(TWO_SERVER)(1, 0)

    def test_utilization_spread_within_quantization(self):
        # realistic demand: spread of (w*+u)/pi stays within 2/q_s
        for seed in range(10):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(4, 20))
            inst = SchedulingInstance(
                workloads=tuple(int(v) for v in rng.integers(1, 101, n)),
                occupied=tuple(int(v) for v in rng.integers(0, 20, n)),
                capacity=tuple(100 if j % 2 == 0 else 300 for j in range(n)),
            )
            y0, z0 = scheduling_init(inst)
            g = generate_random_digraph(n, 0.5, seed=seed)
            out = run_sync(
                RunConfig(graph=g, y0=y0, z0=z0, seed=seed, recovery=make_scheduling_recovery(inst))
            )
            assert out.converged
            q_s = int(out.final_estimate[0])
            utils = scheduling_utilizations(inst, [int(w) for w in out.recovered_solution])
            assert max(utils) - min(utils) <= Fraction(2, q_s)

    def test_total_allocation_tracks_demand(self):
        # with an integral quotient the assignment error is rounding only:
        # |sum w* - demand| <= n; otherwise the floor-of-quotient skew adds
        # at most total tokens / q_s
        inst = SchedulingInstance(workloads=(40, 40), occupied=(0, 0), capacity=(100, 300))
        w = recover_all(inst, int(inst.exact_ratio()))
        assert abs(sum(w) - inst.total_demand) <= inst.n
        for seed in range(8):
            rng = np.random.default_rng(seed + 50)
            n = int(rng.integers(4, 16))
            inst = SchedulingInstance(
                workloads=tuple(int(v) for v in rng.integers(1, 101, n)),
                occupied=tuple(0 for _ in range(n)),
                capacity=tuple(100 if j % 2 == 0 else 300 for j in range(n)),
            )
            q = inst.exact_ratio()
            q_s = q.numerator // q.denominator
            w = recover_all(inst, q_s)
            tokens = sum(l + u for l, u in zip(inst.workloads, inst.occupied))
            slack = n / 2 + tokens * float(abs(q - q_s)) / q_s
            assert abs(sum(w) - inst.total_demand) <= slack + 1e-9


class TestFederated:
    def test_weighted_aggregate_example(self):
        inst = FederatedInstance(dataset_sizes=(10, 30), local_params=(100, 200))
        assert inst.exact_aggregate() == 175
        y0, z0 = federated_init(inst)
        assert y0 == (1000, 6000)
        assert z0 == (10, 30)
        assert target_quotient(y0, z0) == 175

    def test_protocol_run_hits_weighted_mean(self):
        inst = FederatedInstance(dataset_sizes=(10, 30), local_params=(100, 200))
        y0, z0 = federated_init(inst)
        out = run_sync(RunConfig(graph=bidirectional_pair(), y0=y0, z0=z0, seed=1))
        assert out.converged
        agg = federated_recover(int(out.final_estimate[0]))
        assert abs(agg - 175) < 1

    def test_single_node_equivalent(self):
        inst = FederatedInstance(dataset_sizes=(4, 4), local_params=(7, 7))
        y0, z0 = federated_init(inst)
        assert target_quotient(y0, z0) == 7

    def test_equal_sizes_reduce_to_plain_mean(self):
        inst = FederatedInstance(dataset_sizes=(5, 5, 5), local_params=(1, 2, 6))
        assert inst.exact_aggregate() == Fraction(9, 3)

    def test_literal_compat_mode(self):
        inst = FederatedInstance(dataset_sizes=(10, 30), local_params=(100, 200))
        y0, z0 = federated_init(inst, literal_init=True)
        assert y0 == (100, 200)
        assert z0 == (10, 30)
        # the literal text does not reproduce the weighted aggregate
        assert target_quotient(y0, z0) != inst.exact_aggregate()

    def test_validation(self):
        with pytest.raises(InvalidInstanceError):
            FederatedInstance(dataset_sizes=(0, 3), local_params=(1, 1))
        with pytest.raises(InvalidInstanceError):
            FederatedInstance(dataset_sizes=(1,), local_params=(1, 2))

    def test_recovered_within_quantization_level(self):
        for seed in range(20):
            rng = np.random.default_rng(seed + 800)
            n = int(rng.integers(3, 12))
            inst = FederatedInstance(
                dataset_sizes=tuple(int(v) for v in rng.integers(10, 101, n)),
                local_params=tuple(int(v) for v in rng.integers(1000, 100001, n)),
            )
            y0, z0 = federated_init(inst)
            g = generate_random_digraph(n, 0.5, seed=seed)
            mode_async = seed % 2 == 1
            cfg = RunConfig(graph=g, y0=y0, z0=z0, seed=seed)
            out = run_async(cfg, DelayModel(max_delay=3)) if mode_async else run_sync(cfg)
            assert out.converged
            agg = federated_recover(int(out.final_estimate[0]))
            assert abs(agg - float(inst.exact_aggregate())) < 1


class TestGenericMapping:
    def test_quotient_equals_weighted_mean(self):
        alphas, rhos = (2, 3, 5), (10, 0, 4)
        y0, z0 = generic_init(alphas, rhos)
        assert target_quotient(y0, z0) == generic_optimum(alphas, rhos)
        assert generic_optimum(alphas, rhos) == Fraction(2 * 10 + 5 * 4, 10)

    def test_literal_mode_uses_rho_tokens(self):
        y0, z0 = generic_init((2, 3), (10, 4), literal_init=True)
        assert z0 == (10, 4)
        with pytest.raises(InvalidInstanceError):
            generic_init((2, 3), (10, 0), literal_init=True)

    def test_validation(self):
        with pytest.raises(InvalidInstanceError):
            generic_init((0, 1), (1, 1))
        with pytest.raises(InvalidInstanceError):
            generic_init((1,), (1, 2))
