"""Error curves and trial statistics."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest

from qcs import (
    RunConfig,
    TrajectoryRecord,
    generate_random_digraph,
    normalized_error,
    run_sync,
    target_quotient,
    trial_stats,
)


def record(step, y, z):
    y = np.asarray(y, dtype=np.int64)
    z = np.asarray(z, dtype=np.int64)
    zero = np.zeros_like(y)
    return TrajectoryRecord(
        step=step, y=y, z=z, estimate=zero, vote_max=zero, vote_min=zero, flag=zero
    )


def direct_error(records, x_star, reciprocal=True):
    """Oracle: literal evaluation of the normalized error at each step."""
    out = []
    denom = None
    for rec in records:
        states = [y / z for y, z in zip(rec.y, rec.z)]
        if reciprocal:
            states = [1.0 / s for s in states]
        total = sum((s - x_star) ** 2 for s in states)
        if denom is None:
            denom = total
        out.append(math.sqrt(total / denom))
    return out


class TestNormalizedError:
    def test_starts_at_one(self):
        recs = [record(0, [4, 8], [2, 2]), record(1, [6, 6], [2, 2])]
        series = normalized_error(recs, x_star=0.4, mode="reciprocal")
        assert series.values[0] == pytest.approx(1.0)
        assert not series.degenerate

    def test_zero_at_the_optimum(self):
        recs = [record(0, [4, 8], [2, 2]), record(1, [6, 6], [2, 2])]
        series = normalized_error(recs, x_star=3.0, mode="direct")
        assert series.values[1] == pytest.approx(0.0)

    def test_degenerate_start_gives_flagged_zeros(self):
        recs = [record(0, [6, 6], [2, 2]), record(1, [6, 6], [2, 2])]
        series = normalized_error(recs, x_star=3.0, mode="direct")
        assert series.degenerate
        assert (series.values == 0).all()

    def test_undefined_start_gives_an_empty_truncated_series(self):
        # a node without mass has an infinite reciprocal state at k = 0
        recs = [record(0, [0, 8], [2, 2]), record(1, [4, 4], [2, 2])]
        series = normalized_error(recs, x_star=0.5, mode="reciprocal")
        assert series.truncated and not series.degenerate
        assert series.values.size == 0

    def test_series_stops_before_its_first_undefined_point(self):
        recs = [record(0, [2, 8], [2, 2]), record(1, [4, 6], [2, 2]), record(2, [0, 10], [2, 2]),
                record(3, [5, 5], [2, 2])]
        series = normalized_error(recs, x_star=0.5, mode="reciprocal")
        assert series.truncated
        assert series.values.tolist() == pytest.approx(direct_error(recs[:2], 0.5))
        # direct mode has no undefined point here
        full = normalized_error(recs, x_star=2.5, mode="direct")
        assert not full.truncated and full.values.size == 4 and np.isfinite(full.values).all()

    def test_matches_literal_oracle(self):
        g = generate_random_digraph(8, 0.5, seed=3)
        y0 = [12, 70, 3, 55, 8, 90, 41, 22]
        z0 = [2, 3, 1, 4, 2, 5, 1, 2]
        out = run_sync(RunConfig(graph=g, y0=y0, z0=z0, seed=3, record_trajectory=True))
        assert out.converged
        x_star = float(1 / target_quotient(y0, z0))
        got = normalized_error(out.trajectory, x_star, mode="reciprocal").values
        want = direct_error(out.trajectory, x_star)
        assert np.allclose(got, want)
        assert (got >= 0).all()

    def test_terminal_error_within_quantization_band(self):
        # terminal ratios sit in [floor(Q), ceil(Q)], so the terminal
        # reciprocal error cannot exceed the floor-side band scaled by
        # the k=0 normalization
        g = generate_random_digraph(10, 0.5, seed=11)
        y0 = [15, 81, 33, 47, 62, 9, 28, 74, 56, 40]
        z0 = [2, 3, 2, 4, 3, 1, 2, 3, 2, 3]
        q = target_quotient(y0, z0)
        assert q.denominator > 1  # keep the band nonzero
        out = run_sync(RunConfig(graph=g, y0=y0, z0=z0, seed=11, record_trajectory=True))
        assert out.converged
        x_star = float(1 / q)
        series = normalized_error(out.trajectory, x_star, mode="reciprocal")
        lo = q.numerator // q.denominator
        band = abs(1 / lo - float(1 / q))
        rec0 = out.trajectory[0]
        denom = sum((z / y - x_star) ** 2 for y, z in zip(rec0.y, rec0.z))
        limit = band * math.sqrt(g.n / denom)
        assert series.values[-1] <= limit + 1e-12

    def test_mode_validation(self):
        with pytest.raises(ValueError):
            normalized_error([record(0, [1], [1])], 1.0, mode="squared")
        with pytest.raises(ValueError):
            normalized_error([], 1.0)


class FakeOutcome:
    def __init__(self, converged, termination_step, steps_run):
        self.converged = converged
        self.termination_step = termination_step
        self.steps_run = steps_run


class TestTrialStats:
    def test_singleton(self):
        st = trial_stats([FakeOutcome(True, 8, 8)])
        assert st.mean == 8
        assert st.std == 0
        assert st.converged_count == 1

    def test_fraction_within_bound(self):
        outs = [FakeOutcome(True, s, s) for s in (8, 10, 12)]
        st = trial_stats(outs, bound=10)
        assert st.fraction_within_bound == pytest.approx(2 / 3)

    def test_censoring_is_flagged_not_dropped(self):
        outs = [FakeOutcome(True, 6, 6), FakeOutcome(False, None, 500)]
        st = trial_stats(outs, bound=100)
        assert st.trials == 2
        assert st.censored == (False, True)
        assert st.convergence_steps == (6, 500)
        assert st.fraction_within_bound == pytest.approx(0.5)

    def test_permutation_invariance(self):
        outs = [FakeOutcome(True, s, s) for s in (4, 18, 2, 30)]
        a = trial_stats(outs)
        b = trial_stats(list(reversed(outs)))
        assert (a.mean, a.std, a.min, a.max) == (b.mean, b.std, b.min, b.max)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            trial_stats([])
