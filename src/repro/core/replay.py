"""Replay buffers used by the risk-sensitive agent.

Two buffers appear in Fig. 2 of the paper:

* the **worst-case replay buffer** ``B_worst`` stores ``(x, r_worst)``
  pairs, where ``r_worst`` is the minimum reward across the mismatch
  conditions simulated for that design at the worst corner;
* the **last worst-case buffer** remembers, per PVT corner, the most recent
  worst reward observed there — it is used both to pick the worst corner for
  the next optimization step and to order corners at the start of
  verification (Algorithm 2 sorts ``T`` by it).

The worst-case buffer keeps its experiences in two preallocated arrays, a
``(capacity, *design_shape)`` design block (allocated on the first
``add``, which fixes the design shape) and a ``(capacity,)`` reward
vector.  Writes fill slots ``0, 1, ...`` and, once the buffer is full,
overwrite them oldest-first as a FIFO ring, so a batch is one
``rng.choice`` over the filled slots and one fancy-index gather.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.variation.corners import CornerSet, PVTCorner


@dataclass(frozen=True)
class Transition:
    """One stored experience: a design and its worst-case reward."""

    design: np.ndarray
    reward: float


class WorstCaseReplayBuffer:
    """Fixed-capacity FIFO buffer of ``(design, worst reward)`` pairs."""

    def __init__(self, capacity: int = 2048):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self._capacity = capacity
        self._designs: Optional[np.ndarray] = None
        self._rewards = np.empty(capacity)
        self._size = 0
        self._cursor = 0

    def __len__(self) -> int:
        return self._size

    @property
    def capacity(self) -> int:
        return self._capacity

    def add(self, design: np.ndarray, reward: float) -> None:
        design = np.asarray(design, dtype=float)
        if self._designs is None:
            self._designs = np.empty((self._capacity,) + design.shape)
        self._designs[self._cursor] = design
        self._rewards[self._cursor] = float(reward)
        self._cursor = (self._cursor + 1) % self._capacity
        self._size = min(self._size + 1, self._capacity)

    def sample(
        self, batch_size: int, rng: Optional[np.random.Generator] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """A random batch (with replacement when the buffer is small)."""
        if not self._size:
            raise ValueError("cannot sample from an empty buffer")
        rng = rng if rng is not None else np.random.default_rng()
        replace = self._size < batch_size
        indices = rng.choice(self._size, size=batch_size, replace=replace)
        return self._designs[indices], self._rewards[indices]

    def best(self) -> Transition:
        """The stored transition with the highest worst-case reward.

        Ties go to the lowest slot.  NaN rewards never win, except in slot
        0, which is kept when it holds NaN (``max`` over the slots in
        order, comparing rewards with ``>``).
        """
        if not self._size:
            raise ValueError("buffer is empty")
        rewards = self._rewards[: self._size]
        index = 0 if np.isnan(rewards[0]) else int(np.nanargmax(rewards))
        return Transition(self._designs[index].copy(), float(rewards[index]))

    def all_designs(self) -> np.ndarray:
        """Stored designs in slot order (a copy)."""
        if not self._size:
            raise ValueError("buffer is empty")
        return self._designs[: self._size].copy()

    def all_rewards(self) -> np.ndarray:
        """Stored rewards in slot order (a copy)."""
        return self._rewards[: self._size].copy()


class LastWorstCaseBuffer:
    """Per-corner memory of the most recent worst reward.

    Corners that have not been visited yet report ``None`` and are treated
    as *worst* (lowest priority value) so the optimizer explores them first.
    """

    def __init__(self, corners: CornerSet):
        self._corners = corners
        self._last: Dict[str, Optional[float]] = {c.name: None for c in corners}

    @property
    def corners(self) -> CornerSet:
        return self._corners

    def update(self, corner: PVTCorner, reward: float) -> None:
        if corner.name not in self._last:
            raise KeyError(f"corner {corner.name} not tracked by this buffer")
        self._last[corner.name] = float(reward)

    def reward_of(self, corner: PVTCorner) -> Optional[float]:
        return self._last[corner.name]

    def worst_corner(self) -> PVTCorner:
        """The corner with the lowest recorded reward (unvisited first)."""
        def key(corner: PVTCorner) -> float:
            value = self._last[corner.name]
            return -np.inf if value is None else value

        return min(self._corners, key=key)

    def sorted_corners(self) -> CornerSet:
        """Corners ordered worst-first (Algorithm 2's initial sort of T)."""
        def key(corner: PVTCorner) -> float:
            value = self._last[corner.name]
            return -np.inf if value is None else value

        ordered = sorted(self._corners, key=key)
        return CornerSet(ordered)

    def as_dict(self) -> Dict[str, Optional[float]]:
        return dict(self._last)
