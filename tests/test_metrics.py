"""Error curves and trial statistics."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qcs import (
    DelayModel,
    ErrorSeries,
    RunConfig,
    generate_random_digraph,
    normalized_error,
    run_async,
    run_sync,
    target_quotient,
    trial_stats,
)


def masses(y_rows, z_rows):
    """The (y, z) mass rows of a run whose step k held y_rows[k], z_rows[k]."""
    return np.array(y_rows, dtype=np.int64), np.array(z_rows, dtype=np.int64)


def direct_error(rows, x_star, reciprocal=True):
    """Oracle: literal evaluation of the normalized error at each step."""
    out = []
    denom = None
    for ys, zs in zip(*rows):
        states = [y / z for y, z in zip(ys, zs)]
        if reciprocal:
            states = [1.0 / s for s in states]
        total = sum((s - x_star) ** 2 for s in states)
        if denom is None:
            denom = total
        out.append(math.sqrt(total / denom))
    return out


class TestNormalizedError:
    def test_starts_at_one(self):
        rows = masses([[4, 8], [6, 6]], [[2, 2], [2, 2]])
        series = normalized_error(rows, x_star=0.4, mode="reciprocal")
        assert series.values[0] == pytest.approx(1.0)
        assert not series.degenerate

    def test_zero_at_the_optimum(self):
        rows = masses([[4, 8], [6, 6]], [[2, 2], [2, 2]])
        series = normalized_error(rows, x_star=3.0, mode="direct")
        assert series.values[1] == pytest.approx(0.0)

    def test_degenerate_start_gives_flagged_zeros(self):
        rows = masses([[6, 6], [6, 6]], [[2, 2], [2, 2]])
        series = normalized_error(rows, x_star=3.0, mode="direct")
        assert series.degenerate
        assert (series.values == 0).all()

    def test_undefined_start_gives_an_empty_truncated_series(self):
        # a node without mass has an infinite reciprocal state at k = 0
        rows = masses([[0, 8], [4, 4]], [[2, 2], [2, 2]])
        series = normalized_error(rows, x_star=0.5, mode="reciprocal")
        assert series.truncated and not series.degenerate
        assert series.values.size == 0

    def test_series_stops_before_its_first_undefined_point(self):
        y, z = rows = masses([[2, 8], [4, 6], [0, 10], [5, 5]], [[2, 2]] * 4)
        series = normalized_error(rows, x_star=0.5, mode="reciprocal")
        assert series.truncated
        assert series.values.tolist() == pytest.approx(direct_error((y[:2], z[:2]), 0.5))
        # direct mode has no undefined point here
        full = normalized_error(rows, x_star=2.5, mode="direct")
        assert not full.truncated and full.values.size == 4 and np.isfinite(full.values).all()

    def test_matches_literal_oracle(self):
        g = generate_random_digraph(8, 0.5, seed=3)
        y0 = [12, 70, 3, 55, 8, 90, 41, 22]
        z0 = [2, 3, 1, 4, 2, 5, 1, 2]
        out = run_sync(RunConfig(graph=g, y0=y0, z0=z0, seed=3, record_masses=True))
        assert out.converged
        x_star = float(1 / target_quotient(y0, z0))
        got = normalized_error((out.mass_y, out.mass_z), x_star, mode="reciprocal").values
        want = direct_error((out.mass_y, out.mass_z), x_star)
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
        out = run_sync(RunConfig(graph=g, y0=y0, z0=z0, seed=11, record_masses=True))
        assert out.converged
        x_star = float(1 / q)
        series = normalized_error((out.mass_y, out.mass_z), x_star, mode="reciprocal")
        lo = q.numerator // q.denominator
        band = abs(1 / lo - float(1 / q))
        denom = sum((z / y - x_star) ** 2 for y, z in zip(out.mass_y[0], out.mass_z[0]))
        limit = band * math.sqrt(g.n / denom)
        assert series.values[-1] <= limit + 1e-12

    def test_mode_validation(self):
        with pytest.raises(ValueError):
            normalized_error(masses([[1]], [[1]]), 1.0, mode="squared")


def loop_error(rows, x_star, mode):
    """Oracle: the per-step loop normalized_error ran before it took mass rows.

    Same float64 operations in the same order, so the vectorized curve
    must equal it bit for bit.
    """
    target = float(x_star)
    y_rows, z_rows = rows
    sums = np.empty(len(y_rows), dtype=np.float64)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for i, (y, z) in enumerate(zip(y_rows, z_rows)):
            states = y.astype(np.float64) / z.astype(np.float64)
            if mode == "reciprocal":
                states = 1.0 / states
            sums[i] = np.sum((states - target) ** 2)
        if sums[0] == 0.0:
            values, degenerate = np.zeros(len(y_rows)), True
        else:
            values, degenerate = np.sqrt(sums / sums[0]), False
    defined = np.isfinite(sums) & np.isfinite(values)
    if not defined.all():
        cut = int(np.argmin(defined))
        return ErrorSeries(values=values[:cut], degenerate=degenerate, truncated=True)
    return ErrorSeries(values=values, degenerate=degenerate)


@st.composite
def mass_rows(draw):
    """Mass rows over n nodes; y may be 0, so reciprocal curves can truncate."""
    n = draw(st.integers(1, 12))
    steps = draw(st.integers(1, 8))
    y_row = st.lists(st.integers(0, 60), min_size=n, max_size=n)
    z_row = st.lists(st.integers(1, 9), min_size=n, max_size=n)
    return masses(*zip(*[(draw(y_row), draw(z_row)) for _ in range(steps)]))


def assert_same_series(got, want):
    assert got.values.dtype == want.values.dtype == np.float64
    assert got.values.tobytes() == want.values.tobytes()
    assert (got.degenerate, got.truncated) == (want.degenerate, want.truncated)


class TestCurveMatchesTheLoop:
    """The vectorized curve against the per-step loop it replaced."""

    @settings(max_examples=300, deadline=None)
    @given(mass_rows(), st.floats(0.0, 50.0), st.sampled_from(["reciprocal", "direct"]))
    # degenerate start: every state already at x_star
    @example(masses([[6, 6], [6, 6]], [[2, 2], [2, 2]]), 3.0, "direct")
    @example(masses([[2, 2], [3, 1]], [[6, 6], [6, 6]]), 3.0, "reciprocal")
    # a node runs out of mass mid-curve in reciprocal mode
    @example(masses([[2, 8], [0, 10], [5, 5]], [[2, 2]] * 3), 0.5, "reciprocal")
    # a node holds no mass at k = 0
    @example(masses([[0, 8], [4, 4]], [[2, 2], [2, 2]]), 0.5, "reciprocal")
    def test_equal_to_the_loop(self, rows, x_star, mode):
        assert_same_series(normalized_error(rows, x_star, mode=mode), loop_error(rows, x_star, mode))

    def test_empty_mass_rows_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            normalized_error((np.zeros((0, 3), dtype=np.int64),) * 2, 1.0)

    def test_malformed_mass_rows_rejected(self):
        rows = np.ones((3, 4), dtype=np.int64)
        # a 1-D z used to broadcast into a curve, and a 1-D y to raise numpy's AxisError
        for y, z in ((rows, rows[0]), (rows[0], rows), (rows, rows[:, :3]), (rows[0], rows[0])):
            with pytest.raises(ValueError, match="2-D arrays of one shape"):
                normalized_error((y, z), 1.0)

    @pytest.mark.parametrize("max_delay", [1, 4])
    def test_mass_rows_equal_the_snapshots(self, max_delay):
        for seed in range(6):
            g = generate_random_digraph(9, 0.5, seed=seed)
            y0 = [int(v) for v in np.random.default_rng(seed).integers(0, 40, 9)]
            z0 = [int(v) for v in np.random.default_rng(seed + 50).integers(1, 6, 9)]
            cfg = RunConfig(graph=g, y0=y0, z0=z0, seed=seed, record_trajectory=True, record_masses=True)
            out = run_sync(cfg) if max_delay == 1 else run_async(cfg, DelayModel(max_delay=max_delay))
            assert out.converged
            assert out.mass_y.shape == out.mass_z.shape == (out.steps_run + 1, g.n)
            assert out.mass_y.dtype == out.mass_z.dtype == np.int64
            assert len(out.trajectory) == out.steps_run + 1
            for k, rec in enumerate(out.trajectory):
                assert np.array_equal(out.mass_y[k], rec.y) and np.array_equal(out.mass_z[k], rec.z)

    def test_each_recording_is_separate(self):
        g = generate_random_digraph(6, 0.6, seed=2)
        base = dict(graph=g, y0=[5, 9, 2, 7, 1, 4], z0=[1, 2, 1, 3, 1, 2], seed=2)
        masses = run_sync(RunConfig(**base, record_masses=True))
        assert masses.trajectory is None and masses.mass_y is not None
        full = run_sync(RunConfig(**base, record_trajectory=True))
        assert full.trajectory is not None and full.mass_y is None and full.mass_z is None


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
        st = trial_stats(outs, bound=[10] * 3)
        assert st.fraction_within_bound == pytest.approx(2 / 3)

    def test_censoring_is_flagged_not_dropped(self):
        outs = [FakeOutcome(True, 6, 6), FakeOutcome(False, None, 500)]
        st = trial_stats(outs, bound=[100] * 2)
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
