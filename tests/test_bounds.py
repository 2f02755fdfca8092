"""Closed-form bound formulas against exact independent oracles."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest

from qcs import (
    DelayModel,
    completion_step_bound,
    completion_step_bound_delayed,
    generate_random_digraph,
    initial_state_error,
    target_quotient,
    token_walk_probability,
    visit_prob_bound,
    visit_prob_bound_delayed,
    windows_for_confidence,
    windows_for_confidence_delayed,
    bounds_report,
)

from conftest import bidirectional_pair, ring


def delayed_walk_probability(g, pmf, steps, start, target) -> Fraction:
    """Oracle: exact delayed-walk occupancy over the product chain.

    State (position, residual): the token waits out its residual
    processing time, then hops uniformly to an out-neighbor or itself
    and draws a fresh residual from the pmf.  Exact rational enumeration.
    """
    pmf = {lam: Fraction(p) for lam, p in pmf.items()}
    dist: dict[tuple[int, int], Fraction] = {}
    for lam, p in pmf.items():
        dist[(start, lam)] = p
    for _ in range(steps):
        nxt: dict[tuple[int, int], Fraction] = {}
        for (pos, res), mass in dist.items():
            if res > 1:
                key = (pos, res - 1)
                nxt[key] = nxt.get(key, Fraction(0)) + mass
                continue
            b = Fraction(1, 1 + g.out_degrees[pos])
            for l in (*g.out_neighbors[pos], pos):
                for lam, p in pmf.items():
                    key = (l, lam)
                    nxt[key] = nxt.get(key, Fraction(0)) + mass * b * p
        dist = nxt
    return sum((m for (pos, _), m in dist.items() if pos == target), Fraction(0))


class TestVisitProbBound:
    def test_formula_values(self):
        assert visit_prob_bound(1, 1) == Fraction(1, 2)
        assert visit_prob_bound(2, 2) == Fraction(1, 9)

    def test_walk_oracle_dominates_on_small_graphs(self):
        for seed in range(12):
            g = generate_random_digraph(3 + seed % 4, 0.5, seed=seed)
            bound = visit_prob_bound(g.diameter, g.max_out_degree)
            for start in range(g.n):
                for target in range(g.n):
                    prob = token_walk_probability(g, start, target, g.diameter)
                    assert prob >= bound

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            visit_prob_bound(0, 1)
        with pytest.raises(ValueError):
            visit_prob_bound(1, 0)


class TestVisitProbBoundDelayed:
    def test_certain_max_delay_reduces_to_plain(self):
        assert visit_prob_bound_delayed(3, 2, 1) == visit_prob_bound(3, 2)

    def test_exact_decimal_value(self):
        assert visit_prob_bound_delayed(2, 2, 0.2) == Fraction(1, 225)
        assert visit_prob_bound_delayed(2, 2, Fraction(1, 5)) == Fraction(1, 225)

    def test_delayed_chain_oracle_dominates_on_ring(self):
        # 3-node ring, uniform pmf over {1, 2}: enumerate the exact
        # delayed walk over max_delay * diameter steps
        g = ring(3)
        b = 2
        pmf = {1: Fraction(1, 2), 2: Fraction(1, 2)}
        bound = visit_prob_bound_delayed(g.diameter, g.max_out_degree, Fraction(1, 2))
        steps = b * g.diameter
        for start in range(3):
            for target in range(3):
                prob = delayed_walk_probability(g, pmf, steps, start, target)
                assert prob >= bound


class TestWindowsForConfidence:
    def test_half_life_case(self):
        assert windows_for_confidence(0.5, 1, 1) == 1

    def test_frozen_derived_value(self):
        # oracle: ln(0.01)/ln(8/9) is strictly between 39 and 40, and
        # (8/9)^40 <= 1/100 < (8/9)^39 in exact arithmetic
        q = math.log(0.01) / math.log(8 / 9)
        assert 39 < q < 40
        assert Fraction(8, 9) ** 40 <= Fraction(1, 100) < Fraction(8, 9) ** 39
        assert windows_for_confidence(0.01, 2, 2) == 40

    def test_monotone_in_epsilon(self):
        taus = [windows_for_confidence(e, 2, 3) for e in (0.5, 0.1, 0.05, 0.01, 0.001)]
        assert taus == sorted(taus)

    def test_confidence_inequality_holds_exactly(self):
        for diam in (1, 2, 3):
            for deg in (1, 2, 4):
                for eps in (0.5, 0.1, 0.01):
                    tau = windows_for_confidence(eps, diam, deg)
                    miss = 1 - visit_prob_bound(diam, deg)
                    assert miss**tau <= Fraction(str(eps))
                    assert tau >= 1

    def test_exact_check_bumps_past_the_float_ceiling(self):
        # miss = 3/4; an epsilon a hair below (3/4)^10 sits within the snap
        # tolerance of 10 windows in floats, and only the exact check sees
        # that (3/4)^10 > epsilon, so one window is added
        edge = Fraction(3, 4) ** 10
        assert windows_for_confidence(edge, 1, 3) == 10
        hair_below = edge * (1 - Fraction(1, 10**12))
        assert math.ceil(math.log(float(hair_below)) / math.log(3 / 4) - 1e-9) == 10
        assert windows_for_confidence(hair_below, 1, 3) == 11

    def test_delayed_reduction_and_monotonicity(self):
        assert windows_for_confidence_delayed(0.01, 2, 2, 1) == windows_for_confidence(0.01, 2, 2)
        t1 = windows_for_confidence_delayed(0.01, 2, 2, 0.5)
        t2 = windows_for_confidence_delayed(0.01, 2, 2, 0.2)
        assert t2 >= t1
        miss = 1 - visit_prob_bound_delayed(2, 2, 0.2)
        assert miss**t2 <= Fraction(1, 100)

    @pytest.mark.parametrize("exponent", [17, 40, 400])
    def test_visit_floors_below_float_resolution(self, exponent):
        # below 2**-53 a float 1 - p rounds to 1, and below about 1e-306
        # log(eps) / p leaves the float range; the count still follows
        # -log(1 - p) = p, to within a factor 1 + p
        p = Fraction(1, 10**exponent)
        tau = windows_for_confidence_delayed(0.1, 1, 1, 2 * p)
        assert abs(tau * p / Fraction(math.log(10)) - 1) < Fraction(1, 10**12)
        assert windows_for_confidence_delayed(0.01, 1, 1, 2 * p) > tau

    def test_epsilon_validation(self):
        with pytest.raises(ValueError):
            windows_for_confidence(0.0, 1, 1)
        with pytest.raises(ValueError):
            windows_for_confidence(1.0, 1, 1)


class TestInitialStateError:
    def test_all_values_inside_quantization_band(self):
        assert initial_state_error([5, 5, 6], Fraction(11, 2)) == 0

    def test_derived_example(self):
        # ceil(5.5) = 6, floor(5.5) = 5: above mass (10 - 6) = 4,
        # below mass (5 - 3) = 2, total 6
        assert initial_state_error([10, 3, 5, 6], Fraction(11, 2)) == 6

    def test_exact_hit(self):
        assert initial_state_error([7], 7) == 0

    def test_uses_target_quotient(self):
        # quotient 6: above mass 10-6 = 4, below mass (6-3) + (6-5) = 4
        y0, z0 = [10, 3, 5, 6], [1, 1, 1, 1]
        assert target_quotient(y0, z0) == 6
        assert initial_state_error(y0, target_quotient(y0, z0)) == 8


class TestCompletionStepBounds:
    def test_small_formula_value(self):
        assert completion_step_bound(0, 4, 1, 2) == 10

    def test_derived_value(self):
        assert completion_step_bound(6, 4, 40, 2) == 802

    def test_structure_multiple_of_diameter_plus_one_window(self):
        for err in (0, 3, 17):
            for diam in (1, 2, 5):
                b = completion_step_bound(err, 4, 7, diam)
                assert b % diam == 0
                assert b == (err + 4) * 7 * diam + diam

    def test_delayed_reduces_at_unit_bound(self):
        assert completion_step_bound_delayed(6, 4, 40, 2, 1) == completion_step_bound(6, 4, 40, 2)

    def test_delayed_derived_value(self):
        assert completion_step_bound_delayed(6, 4, 40, 2, 5) == 4010

    def test_delayed_linear_in_max_delay(self):
        vals = [completion_step_bound_delayed(6, 4, 40, 2, b) for b in (1, 2, 3, 4)]
        diffs = [b - a for a, b in zip(vals, vals[1:])]
        assert len(set(diffs)) == 1

    @pytest.mark.parametrize(
        "args",
        [(-1, 4, 7, 2), (-5, 0, 0, 1), (5, 0, 7, 2), (5, 4, 0, 2), (5, 4, 7, 0), (0, 1, 1, -3)],
    )
    def test_delayed_refuses_what_the_plain_bound_refuses(self, args):
        with pytest.raises(ValueError):
            completion_step_bound(*args)
        for b in (1, 3):
            with pytest.raises(ValueError):
                completion_step_bound_delayed(*args, b)

    def test_delayed_refuses_a_zero_diameter_or_delay(self):
        with pytest.raises(ValueError, match="diam"):
            completion_step_bound_delayed(6, 4, 40, 0, 5)
        with pytest.raises(ValueError, match="max_delay"):
            completion_step_bound_delayed(6, 4, 40, 2, 0)

    def test_monotone_in_all_inputs(self):
        base = completion_step_bound(5, 4, 7, 2)
        assert completion_step_bound(6, 4, 7, 2) >= base
        assert completion_step_bound(5, 5, 7, 2) >= base
        assert completion_step_bound(5, 4, 8, 2) >= base


class TestTokenWalkProbability:
    def test_single_hop_on_pair(self):
        g = bidirectional_pair()
        assert token_walk_probability(g, 0, 1, 1) == Fraction(1, 2)

    def test_zero_steps_is_initial_distribution(self):
        g = ring(4)
        assert token_walk_probability(g, 2, 2, 0) == 1
        assert token_walk_probability(g, 2, 0, 0) == 0

    def test_ring_two_steps(self):
        # only path 0 -> 1 -> 2, each hop probability 1/2
        assert token_walk_probability(ring(3), 0, 2, 2) == Fraction(1, 4)

    def test_distribution_sums_to_one(self):
        g = generate_random_digraph(6, 0.5, seed=9)
        total = sum(token_walk_probability(g, 0, t, 3) for t in range(g.n))
        assert total == 1

    def test_float_path_matches_exact_on_boundary_size(self):
        g = generate_random_digraph(12, 0.3, seed=4)
        exact = token_walk_probability(g, 0, 5, 4)
        big = generate_random_digraph(13, 0.3, seed=4)
        prob = token_walk_probability(big, 0, 5, 4)
        assert isinstance(prob, float)
        assert isinstance(exact, Fraction)
        assert 0 <= prob <= 1


class TestBoundsReport:
    def test_keys_and_consistency(self):
        g = generate_random_digraph(8, 0.5, seed=1)
        rep = bounds_report(g, 0.05, [10] * 8, [2] * 8, DelayModel(max_delay=5))
        assert rep["n"] == 8
        assert rep["diameter"] == g.diameter
        assert rep["windows_delayed"] >= rep["windows"]
        assert rep["completion_step_bound_delayed"] >= rep["completion_step_bound"]
        assert rep["target_quotient"] == 5.0

    def test_window_basis_scales_the_step_bounds_only(self):
        g = generate_random_digraph(8, 0.5, seed=1)
        exact = bounds_report(g, 0.05, [10] * 8, [2] * 8, DelayModel(max_delay=5))
        wide = bounds_report(g, 0.05, [10] * 8, [2] * 8, DelayModel(max_delay=5), window_basis=g.diameter + 7)
        steps = ("completion_step_bound", "completion_step_bound_delayed")
        # window counts and the reported diameter stay those of the exact D
        assert {k: v for k, v in wide.items() if k not in steps} == {k: v for k, v in exact.items() if k not in steps}
        for key in steps:
            assert wide[key] * g.diameter == exact[key] * (g.diameter + 7)

    def test_a_floor_below_the_float_range_is_reported_exactly(self):
        # ring(104) has D = 103 and out-degree 1: under B = 1000 the visit
        # floor is 2**-103 * 1000**-103, about 1e-340, where a float is 0.0
        g = ring(104)
        rep = bounds_report(g, 0.1, [1] * 104, [1] * 104, DelayModel(max_delay=1000))
        floor = visit_prob_bound_delayed(103, 1, Fraction(1, 1000))
        reported = Fraction(rep["visit_prob_bound_delayed"])
        assert reported > 0 and abs(reported / floor - 1) < Fraction(1, 10**16)
        assert rep["windows_delayed"] == math.ceil(Fraction(-math.log(0.1)) / floor)
        # a floor in the float range is reported as a float
        assert rep["visit_prob_bound"] == float(visit_prob_bound(103, 1))

    @pytest.mark.parametrize("epsilon", [0.01, 0.05, 0.3])
    @pytest.mark.parametrize("p", [Fraction(1), Fraction(1, 2), Fraction(1, 5)])
    def test_monotone_in_the_diameter(self, epsilon, p):
        # a larger D never gives fewer windows or an earlier completion step
        for deg in range(1, 7):
            windows = {d: windows_for_confidence_delayed(epsilon, d, deg, p) for d in range(1, 7)}
            for d in range(1, 6):
                assert windows[d] <= windows[d + 1]
                for b in (1, 5):
                    step = completion_step_bound_delayed(7, 10, windows[d], d, b)
                    assert step <= completion_step_bound_delayed(7, 10, windows[d + 1], d + 1, b)
