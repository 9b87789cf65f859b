"""Binning, forward-fill imputation, and the causal convolution embedding."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from mmists.data import (
    DataError,
    Episode,
    GenConfig,
    NormalizationStats,
    NoteEvent,
    TsObservation,
    generate_synthetic,
    group_by_feature,
    normalize,
)
from mmists.imputation import DiscretizedSeries, ReferenceGrid, bin_series, conv_embed, impute
from mmists.tensor import Tensor

from oracles import forward_fill_loop


def stats_with_means(means, alpha_hours=4.0):
    means = np.asarray(means, dtype=np.float64)
    return NormalizationStats(
        feature_min=np.zeros_like(means),
        feature_max=np.ones_like(means),
        global_mean=means,
        alpha_hours=alpha_hours,
    )


def episode(obs, eid="e"):
    return Episode(eid, tuple(obs), (NoteEvent(0.5, text="n"),), np.array([0]))


class TestGrid:
    def test_points_start_at_zero_and_increase(self):
        g = ReferenceGrid(4)
        assert_allclose(g.points, [0.0, 0.25, 0.5, 0.75])
        assert np.all(np.diff(g.points) > 0)

    def test_empty_grid_rejected(self):
        with pytest.raises(DataError):
            ReferenceGrid(0)


class TestDiscretize:
    def test_hourly_example_bins(self):
        # observations [10, 8, 12] at hours [1.2, 1.5, 3.7] of a 4-hour window
        obs = [
            TsObservation(0, 1.2 / 4.0, 10.0),
            TsObservation(0, 1.5 / 4.0, 8.0),
            TsObservation(0, 3.7 / 4.0, 12.0),
        ]
        ep = episode(obs)
        series = bin_series(group_by_feature(ep, 1), ReferenceGrid(4), ep.episode_id)
        assert_array_equal(series.observed_mask[:, 0], [False, True, False, True])
        assert series.values[1, 0] == 8.0  # the later in-bin observation wins
        assert series.values[3, 0] == 12.0

    def test_one_observation_per_bin_passes_through(self):
        obs = [TsObservation(0, (b + 0.5) / 4.0, float(b)) for b in range(4)]
        ep = episode(obs)
        series = bin_series(group_by_feature(ep, 1), ReferenceGrid(4), ep.episode_id)
        assert series.observed_mask.all()
        assert_allclose(series.values[:, 0], [0.0, 1.0, 2.0, 3.0])

    def test_later_time_in_bin_wins(self):
        obs = [TsObservation(0, 0.10, 1.0), TsObservation(0, 0.12, 2.0)]
        ep = episode(obs)
        series = bin_series(group_by_feature(ep, 1), ReferenceGrid(4), ep.episode_id)
        assert series.values[0, 0] == 2.0

    def test_identical_times_resolve_to_later_input(self):
        obs = [TsObservation(0, 0.1, 1.0), TsObservation(0, 0.1, 2.0)]
        ep = episode(obs)
        series = bin_series(group_by_feature(ep, 1), ReferenceGrid(4), ep.episode_id)
        assert series.values[0, 0] == 2.0

    def test_boundary_time_lands_in_later_bin(self):
        ep = episode([TsObservation(0, 0.25, 7.0)])
        series = bin_series(group_by_feature(ep, 1), ReferenceGrid(4), ep.episode_id)
        assert series.observed_mask[1, 0] and not series.observed_mask[0, 0]

    def test_out_of_window_time_rejected(self):
        ep = episode([TsObservation(0, 1.0, 1.0)])
        with pytest.raises(DataError, match="outside the window"):
            bin_series(group_by_feature(ep, 1), ReferenceGrid(4), ep.episode_id)

    def test_negative_time_rejected(self):
        ep = episode([TsObservation(0, -0.5, 1.0)])
        with pytest.raises(DataError, match="outside the window"):
            bin_series(group_by_feature(ep, 1), ReferenceGrid(4), ep.episode_id)

    def test_matches_scan_oracle_on_random_episodes(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            n = int(rng.integers(0, 30))
            times = rng.random(n)
            feats = rng.integers(0, 3, size=n)
            vals = rng.normal(size=n)
            obs = [TsObservation(int(f), float(t), float(v)) for f, t, v in zip(feats, times, vals)]
            ep = episode(obs)
            series = bin_series(group_by_feature(ep, 3), ReferenceGrid(6), ep.episode_id)
            want = np.zeros((6, 3))
            mask = np.zeros((6, 3), dtype=bool)
            for f in range(3):
                mine = [(t, v) for ff, t, v in zip(feats, times, vals) if ff == f]
                mine.sort(key=lambda p: p[0])  # stable: equal times keep input order
                for t, v in mine:
                    b = int(t * 6)
                    want[b, f] = v
                    mask[b, f] = True
            assert_allclose(series.values, want)
            assert_array_equal(series.observed_mask, mask)


class TestImpute:
    def test_worked_example_forward_fills_from_global_mean(self):
        # discretized [miss, 0.8, miss, 0.9] with global mean 0.7 -> [0.7, 0.8, 0.8, 0.9]
        series = DiscretizedSeries(
            values=np.array([[0.0], [0.8], [0.0], [0.9]]),
            observed_mask=np.array([[False], [True], [False], [True]]),
        )
        out = impute(series, stats_with_means([0.7]))
        assert_allclose(out.data[:, 0], [0.7, 0.8, 0.8, 0.9])

    def test_fully_observed_unchanged(self):
        values = np.arange(8.0).reshape(4, 2)
        series = DiscretizedSeries(values=values, observed_mask=np.ones((4, 2), dtype=bool))
        out = impute(series, stats_with_means([0.3, 0.4]))
        assert_array_equal(out.data, values)

    def test_fully_missing_feature_takes_global_mean(self):
        series = DiscretizedSeries(
            values=np.zeros((3, 2)), observed_mask=np.zeros((3, 2), dtype=bool)
        )
        out = impute(series, stats_with_means([0.25, 0.75]))
        assert_allclose(out.data, [[0.25, 0.75]] * 3)

    def test_observed_positions_survive_unchanged(self):
        rng = np.random.default_rng(22)
        values = rng.random((6, 3))
        mask = rng.random((6, 3)) > 0.5
        series = DiscretizedSeries(values=values * mask, observed_mask=mask)
        out = impute(series, stats_with_means([0.5, 0.5, 0.5]))
        assert_allclose(out.data[mask], values[mask])

    def test_output_stays_in_unit_interval(self):
        rng = np.random.default_rng(23)
        eps = generate_synthetic(GenConfig(n_episodes=20, seed=31))
        neps, stats = normalize(eps, alpha_hours=24.0)
        grid = ReferenceGrid(8)
        for ep in neps:
            out = impute(bin_series(group_by_feature(ep, 4), grid, ep.episode_id), stats)
            assert np.all(out.data >= 0.0) and np.all(out.data <= 1.0)

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 30).flatmap(
            lambda alpha: st.tuples(
                st.lists(st.floats(allow_nan=False), min_size=3 * alpha, max_size=3 * alpha),
                st.lists(st.booleans(), min_size=3 * alpha, max_size=3 * alpha),
            )
        ),
        st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3),
    )
    def test_equals_the_bin_by_bin_loop_bit_for_bit(self, values_and_mask, means):
        values, mask = (np.array(x).reshape(-1, 3) for x in values_and_mask)
        series = DiscretizedSeries(values=values, observed_mask=mask)
        out = impute(series, stats_with_means(means)).data
        want = forward_fill_loop(values, mask, np.array(means))
        assert_array_equal(out.view(np.int64), want.view(np.int64))

    def test_feature_count_mismatch_rejected(self):
        series = DiscretizedSeries(np.zeros((2, 3)), np.zeros((2, 3), dtype=bool))
        with pytest.raises(DataError):
            impute(series, stats_with_means([0.5]))


class TestConvEmbed:
    def test_kernel_one_is_per_step_linear_map(self):
        rng = np.random.default_rng(24)
        x = rng.random((5, 3))
        w = rng.normal(size=(1, 3, 4))
        out = conv_embed(Tensor(x), Tensor(w), Tensor(np.zeros(4)))
        assert_allclose(out.data, x @ w[0])

    def test_zero_kernel_gives_bias_rows(self):
        b = np.array([1.0, -2.0])
        out = conv_embed(Tensor(np.random.default_rng(0).random((4, 3))), Tensor(np.zeros((1, 3, 2))), Tensor(b))
        assert_allclose(out.data, np.tile(b, (4, 1)))

    def test_k3_matches_padded_sliding_window(self):
        rng = np.random.default_rng(25)
        x = rng.normal(size=(6, 2))
        w = rng.normal(size=(3, 2, 4))
        b = rng.normal(size=4)
        out = conv_embed(Tensor(x), Tensor(w), Tensor(b))
        padded = np.vstack([np.zeros((2, 2)), x])
        want = np.stack([padded[t] @ w[0] + padded[t + 1] @ w[1] + padded[t + 2] @ w[2] + b for t in range(6)])
        assert_allclose(out.data, want, atol=1e-12)

    def test_causality(self):
        rng = np.random.default_rng(26)
        x = rng.normal(size=(6, 2))
        w = rng.normal(size=(2, 2, 3))
        b = np.zeros(3)
        base = conv_embed(Tensor(x), Tensor(w), Tensor(b)).data
        x2 = x.copy()
        x2[3] += 1.0
        bumped = conv_embed(Tensor(x2), Tensor(w), Tensor(b)).data
        assert_allclose(bumped[:3], base[:3])
        assert not np.allclose(bumped[3:], base[3:])
