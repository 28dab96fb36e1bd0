"""Tests for the replay buffers (repro.core.replay)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.replay import LastWorstCaseBuffer, WorstCaseReplayBuffer
from repro.variation.corners import full_corner_set, vt_corner_set


class TestWorstCaseReplayBuffer:
    def test_add_and_len(self):
        buffer = WorstCaseReplayBuffer(capacity=8)
        buffer.add(np.zeros(3), 0.1)
        assert len(buffer) == 1

    def test_capacity_wraps_fifo(self):
        buffer = WorstCaseReplayBuffer(capacity=3)
        for index in range(5):
            buffer.add(np.full(2, index), float(index))
        assert len(buffer) == 3
        assert set(buffer.all_rewards()) == {2.0, 3.0, 4.0}

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            WorstCaseReplayBuffer(capacity=0)

    def test_sample_shapes(self, rng):
        buffer = WorstCaseReplayBuffer()
        for index in range(20):
            buffer.add(np.full(4, index), float(index))
        designs, rewards = buffer.sample(8, rng)
        assert designs.shape == (8, 4)
        assert rewards.shape == (8,)

    def test_sample_with_replacement_when_small(self, rng):
        buffer = WorstCaseReplayBuffer()
        buffer.add(np.zeros(2), 0.0)
        designs, rewards = buffer.sample(10, rng)
        assert designs.shape == (10, 2)

    def test_sample_empty_rejected(self, rng):
        with pytest.raises(ValueError):
            WorstCaseReplayBuffer().sample(4, rng)

    def test_best_returns_highest_reward(self):
        buffer = WorstCaseReplayBuffer()
        buffer.add(np.zeros(2), -0.5)
        buffer.add(np.ones(2), 0.2)
        buffer.add(np.full(2, 2.0), -0.1)
        best = buffer.best()
        assert best.reward == pytest.approx(0.2)
        assert np.allclose(best.design, 1.0)

    def test_best_empty_rejected(self):
        with pytest.raises(ValueError):
            WorstCaseReplayBuffer().best()

    def test_stored_designs_are_copies(self):
        buffer = WorstCaseReplayBuffer()
        design = np.zeros(2)
        buffer.add(design, 0.0)
        design[:] = 99.0
        assert np.allclose(buffer.all_designs()[0], 0.0)

    @settings(max_examples=30, deadline=None)
    @given(
        rewards=st.lists(
            st.floats(min_value=-5, max_value=0.2, allow_nan=False), min_size=1, max_size=50
        )
    )
    def test_best_is_maximum_property(self, rewards):
        buffer = WorstCaseReplayBuffer(capacity=100)
        for index, reward in enumerate(rewards):
            buffer.add(np.full(2, index), reward)
        assert buffer.best().reward == pytest.approx(max(rewards))


class TestLastWorstCaseBuffer:
    def test_unvisited_corners_are_worst(self):
        corners = vt_corner_set()
        buffer = LastWorstCaseBuffer(corners)
        buffer.update(corners[1], 0.2)
        worst = buffer.worst_corner()
        assert worst != corners[1]

    def test_worst_corner_is_minimum_reward(self):
        corners = vt_corner_set()
        buffer = LastWorstCaseBuffer(corners)
        for index, corner in enumerate(corners):
            buffer.update(corner, float(index))
        assert buffer.worst_corner() == corners[0]

    def test_update_unknown_corner_rejected(self):
        buffer = LastWorstCaseBuffer(vt_corner_set())
        # An SS-process corner is never part of the VT (typical-process) set.
        stranger = next(
            c for c in full_corner_set() if not c.process.is_typical
        )
        with pytest.raises(KeyError):
            buffer.update(stranger, 0.0)

    def test_sorted_corners_worst_first(self):
        corners = vt_corner_set()
        buffer = LastWorstCaseBuffer(corners)
        rewards = [0.2, -0.4, 0.1, -0.1, 0.0, 0.15]
        for corner, reward in zip(corners, rewards):
            buffer.update(corner, reward)
        ordered = buffer.sorted_corners()
        ordered_rewards = [buffer.reward_of(c) for c in ordered]
        assert ordered_rewards == sorted(rewards)

    def test_as_dict_snapshot(self):
        corners = vt_corner_set()
        buffer = LastWorstCaseBuffer(corners)
        buffer.update(corners[0], -0.3)
        snapshot = buffer.as_dict()
        assert snapshot[corners[0].name] == pytest.approx(-0.3)
        assert snapshot[corners[1].name] is None


class _ListReplay:
    """List-of-transitions FIFO buffer sampled by stacking Python objects."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.storage = []
        self.cursor = 0

    def add(self, design, reward):
        item = (np.array(design, dtype=float, copy=True), float(reward))
        if len(self.storage) < self.capacity:
            self.storage.append(item)
        else:
            self.storage[self.cursor] = item
            self.cursor = (self.cursor + 1) % self.capacity

    def sample(self, batch_size, rng):
        replace = len(self.storage) < batch_size
        indices = rng.choice(len(self.storage), size=batch_size, replace=replace)
        designs = np.stack([self.storage[i][0] for i in indices])
        rewards = np.array([self.storage[i][1] for i in indices])
        return designs, rewards

    def best(self):
        return max(self.storage, key=lambda item: item[1])


def _twin_buffers(capacity, count):
    data = np.random.default_rng(5)
    buffer, reference = WorstCaseReplayBuffer(capacity), _ListReplay(capacity)
    for _ in range(count):
        design, reward = data.uniform(size=3), float(data.normal())
        buffer.add(design, reward)
        reference.add(design, reward)
    return buffer, reference


class TestGatheredSampling:
    @pytest.mark.parametrize(
        "count, batch",
        [
            (4, 10),  # below batch: with replacement
            (20, 10),  # below capacity: without replacement
            (37, 10),  # wrapped past capacity 16
            (37, 20),  # wrapped, full buffer smaller than batch
            (64, 16),  # wrapped four times, batch == capacity
        ],
    )
    def test_sample_equals_list_and_stack(self, count, batch):
        capacity = 16 if count > 20 else 32
        buffer, reference = _twin_buffers(capacity, count)
        rng_new, rng_old = np.random.default_rng(9), np.random.default_rng(9)
        for _ in range(5):
            designs, rewards = buffer.sample(batch, rng_new)
            expected_designs, expected_rewards = reference.sample(batch, rng_old)
            assert np.array_equal(designs, expected_designs)
            assert np.array_equal(rewards, expected_rewards)
        assert rng_new.bit_generator.state == rng_old.bit_generator.state

    def test_slot_order_after_wrap(self):
        buffer, reference = _twin_buffers(capacity=5, count=13)
        assert np.array_equal(
            buffer.all_designs(), np.stack([item[0] for item in reference.storage])
        )
        assert np.array_equal(
            buffer.all_rewards(), np.array([item[1] for item in reference.storage])
        )

    def test_returned_arrays_do_not_alias_storage(self, rng):
        buffer, _ = _twin_buffers(capacity=8, count=8)
        buffer.all_designs()[:] = 99.0
        buffer.all_rewards()[:] = 99.0
        designs, rewards = buffer.sample(4, rng)
        designs[:] = 99.0
        buffer.best().design[:] = 99.0
        assert np.all(buffer.all_designs() < 1.0)
        assert np.all(buffer.all_rewards() != 99.0)


class TestBestTieBreak:
    @pytest.mark.parametrize(
        "rewards",
        [
            [0.1, 0.2, 0.2, -0.3],  # first maximum wins
            [float("nan"), 0.5, 0.1],  # NaN in slot 0 is kept
            [0.1, float("nan"), 0.3, float("nan")],  # later NaNs never win
            [-np.inf, float("nan"), -np.inf],
            [float("nan"), float("nan")],
        ],
    )
    def test_best_matches_max_over_slots(self, rewards):
        buffer, reference = WorstCaseReplayBuffer(8), _ListReplay(8)
        for index, reward in enumerate(rewards):
            buffer.add(np.full(2, index), reward)
            reference.add(np.full(2, index), reward)
        best, expected = buffer.best(), reference.best()
        assert np.array_equal(best.design, expected[0])
        assert best.reward == expected[1] or (
            np.isnan(best.reward) and np.isnan(expected[1])
        )

    @settings(max_examples=40, deadline=None)
    @given(
        rewards=st.lists(
            st.one_of(
                st.sampled_from([0.0, 0.2, -1.0, float("nan")]),
                st.floats(min_value=-5, max_value=0.2),
            ),
            min_size=1,
            max_size=30,
        ),
        capacity=st.integers(min_value=1, max_value=12),
    )
    def test_best_matches_max_property(self, rewards, capacity):
        buffer, reference = WorstCaseReplayBuffer(capacity), _ListReplay(capacity)
        for index, reward in enumerate(rewards):
            buffer.add(np.full(2, index), reward)
            reference.add(np.full(2, index), reward)
        assert np.array_equal(buffer.best().design, reference.best()[0])
