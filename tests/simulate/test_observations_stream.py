"""Incremental PathObservations: append, evict, sliding window."""

import numpy as np
import pytest

from repro.exceptions import MeasurementError
from repro.simulate.observations import PathObservations
from repro.utils.rng import as_generator


def random_windows(seed, n_windows, n_paths, rows=(1, 7)):
    rng = as_generator(seed)
    return [
        rng.random((int(rng.integers(*rows, endpoint=True)), n_paths))
        < 0.4
        for _ in range(n_windows)
    ]


def assert_same_state(incremental, scratch):
    """Every observable statistic matches a from-scratch build."""
    assert incremental.n_snapshots == scratch.n_snapshots
    assert np.array_equal(incremental.path_states, scratch.path_states)
    assert np.array_equal(
        incremental.log_good_all(), scratch.log_good_all()
    )
    assert np.array_equal(
        incremental.joint_good_gram(), scratch.joint_good_gram()
    )
    assert incremental.observed_masks() == scratch.observed_masks()
    for snapshot in range(scratch.n_snapshots):
        assert incremental.congested_mask_of_snapshot(
            snapshot
        ) == scratch.congested_mask_of_snapshot(snapshot)


class TestAppendWindow:
    def test_append_equals_from_scratch(self):
        windows = random_windows(0, 5, n_paths=6)
        observations = PathObservations(windows[0])
        # Materialise every cache first so appends must maintain them
        # incrementally rather than rebuild lazily.
        observations.joint_good_gram()
        observations.observed_masks()
        observations.log_good_all()
        for window in windows[1:]:
            observations.append_window(window)
        assert_same_state(
            observations,
            PathObservations(np.concatenate(windows, axis=0)),
        )

    def test_append_on_cold_caches(self):
        windows = random_windows(1, 4, n_paths=5)
        observations = PathObservations(windows[0])
        for window in windows[1:]:
            observations.append_window(window)
        assert_same_state(
            observations,
            PathObservations(np.concatenate(windows, axis=0)),
        )

    def test_empty_window_is_a_no_op(self):
        observations = PathObservations(np.zeros((3, 4), dtype=bool))
        observations.append_window(np.zeros((0, 4), dtype=bool))
        assert observations.n_snapshots == 3

    def test_rejects_path_count_mismatch(self):
        observations = PathObservations(np.zeros((3, 4), dtype=bool))
        with pytest.raises(MeasurementError, match="paths"):
            observations.append_window(np.zeros((2, 5), dtype=bool))

    def test_input_is_frozen(self):
        """Satellite: adopted arrays are made read-only so callers
        can't silently corrupt the accumulated caches."""
        states = np.zeros((3, 4), dtype=bool)
        window = np.ones((2, 4), dtype=bool)
        observations = PathObservations(states)
        observations.append_window(window)
        assert not states.flags.writeable
        assert not window.flags.writeable
        assert not observations.path_states.flags.writeable
        with pytest.raises(ValueError):
            states[0, 0] = True


class TestEviction:
    def test_evict_oldest_matches_tail_rebuild(self):
        windows = random_windows(2, 4, n_paths=6)
        observations = PathObservations(windows[0])
        observations.joint_good_gram()
        observations.observed_masks()
        for window in windows[1:]:
            observations.append_window(window)
        observations.evict_oldest(3)
        full = np.concatenate(windows, axis=0)
        assert_same_state(observations, PathObservations(full[3:]))
        assert observations.n_evicted == 3

    def test_cannot_evict_everything(self):
        observations = PathObservations(np.zeros((2, 3), dtype=bool))
        with pytest.raises(MeasurementError, match="at least one"):
            observations.evict_oldest(2)
        observations.evict_oldest(0)  # no-op
        assert observations.n_snapshots == 2

    def test_max_window_bounds_history(self):
        windows = random_windows(3, 6, n_paths=4, rows=(3, 3))
        observations = PathObservations(windows[0], max_window=7)
        observations.joint_good_gram()
        observations.observed_masks()
        for window in windows[1:]:
            observations.append_window(window)
            assert observations.n_snapshots <= 7
        full = np.concatenate(windows, axis=0)
        assert observations.n_evicted == full.shape[0] - 7
        assert_same_state(observations, PathObservations(full[-7:]))

    def test_sliding_window_buffer_stays_bounded(self):
        """Buffers are sized from the live rows: a long sliding-window
        stream must not grow them with the total rows appended."""
        max_window, rows = 2000, 200
        windows = random_windows(5, 200, n_paths=8, rows=(rows, rows))
        observations = PathObservations(windows[0], max_window=max_window)
        observations.joint_good_gram()
        largest = 0
        for window in windows[1:]:
            observations.append_window(window)
            largest = max(largest, observations._buf.shape[0])
        assert largest <= 2 * (max_window + rows)
        full = np.concatenate(windows, axis=0)
        scratch = PathObservations(full[-max_window:])
        assert np.array_equal(observations.path_states, scratch.path_states)
        assert (
            observations.log_good_all().tobytes()
            == scratch.log_good_all().tobytes()
        )
        assert np.array_equal(
            observations.joint_good_gram(), scratch.joint_good_gram()
        )

    def test_max_window_applies_at_construction(self):
        states = (as_generator(4).random((10, 3)) < 0.5)
        observations = PathObservations(states, max_window=4)
        assert observations.n_snapshots == 4
        assert observations.n_evicted == 6
        assert np.array_equal(observations.path_states, states[-4:])

    def test_rejects_nonpositive_max_window(self):
        with pytest.raises(MeasurementError, match="max_window"):
            PathObservations(np.zeros((2, 3), dtype=bool), max_window=0)

    def test_mask_of_snapshot_reindexes_after_eviction(self):
        states = np.array(
            [[1, 0], [0, 1], [1, 1], [0, 0]], dtype=bool
        )
        observations = PathObservations(states)
        observations.observed_masks()
        observations.evict_oldest(2)
        assert observations.congested_mask_of_snapshot(0) == 0b11
        assert observations.congested_mask_of_snapshot(1) == 0b00
        with pytest.raises(MeasurementError, match="out of range"):
            observations.congested_mask_of_snapshot(2)
