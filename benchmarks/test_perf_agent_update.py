"""Perf benchmark: the RL agent update, component by component.

The risk-sensitive agent's gradient step (critic ensemble regression on
per-model worst-case batches, then one actor step through the Eq.-6
bound) dominates the ``rl-loop`` sizing workload.  Its cost is per-call
Python/numpy overhead, not arithmetic, so this records microseconds per
call for each piece at the paper's agent shape (ensemble 5, batch 10,
hidden 64, design dimension 10):

* ``adam_step`` — one :meth:`AdamOptimizer.step` on a critic base model,
* ``replay_sample`` — one :meth:`WorstCaseReplayBuffer.sample`,
* ``critic_train`` — one :meth:`EnsembleCritic.train` (5 samples + 5
  regression steps),
* ``actor_step`` — one actor policy-gradient step (sample, actor forward,
  :meth:`EnsembleCritic.actor_loss_gradient`, backprop, Adam),
* ``gradient_step`` — one full agent gradient step (``update`` divided by
  its step count).

Each number sits next to :data:`SEED_US`, the same measurement taken on
the same host with the per-array Adam, list-backed replay buffer and
triple critic forward that preceded the flat-buffer rewrite, and the
ratio is recorded as ``speedup``.  Written to
``benchmarks/results/BENCH_agent_update.json``; run with::

    PYTHONPATH=src python -m pytest benchmarks/test_perf_agent_update.py -m perf -q -s
"""

from __future__ import annotations

import gc
import time

import numpy as np
import pytest

from harness import write_bench_json
from repro.core.agent import RiskSensitiveAgent
from repro.core.config import GlovaConfig

DIMENSION = 10
BUFFER_FILL = 200
REPEATS = 15

#: Microseconds per call before the flat-buffer rewrite (per-array Adam,
#: list-of-transitions replay buffer, three critic forwards per base
#: model per actor step): the median of five runs of this file on the host
#: recorded in :data:`SEED_HOST`, interleaved with five runs of the
#: rewrite.  Wall-clock numbers from other hosts are not comparable.
SEED_US = {
    "adam_step": 130.8,
    "replay_sample": 33.2,
    "critic_train": 1388.1,
    "actor_step": 830.1,
    "gradient_step": 2407.2,
}
SEED_HOST = {"cpu_count": 2, "machine": "x86_64", "numpy": "2.4.6", "python": "3.11.7"}


def _us_per_call(callable_, calls: int, repeats: int = REPEATS) -> float:
    """Best-of-``repeats`` mean microseconds over ``calls`` back-to-back calls.

    Garbage collection is off while timing, as in :mod:`timeit`, so a
    collection of the test session's heap never lands in one component.
    """
    best = float("inf")
    gc.disable()
    try:
        for _ in range(repeats):
            start = time.perf_counter()
            for _ in range(calls):
                callable_()
            best = min(best, (time.perf_counter() - start) / calls)
    finally:
        gc.enable()
    return best * 1e6


def _filled_agent() -> RiskSensitiveAgent:
    agent = RiskSensitiveAgent(DIMENSION, GlovaConfig(seed=0))
    rng = np.random.default_rng(1)
    for _ in range(BUFFER_FILL):
        design = rng.uniform(size=DIMENSION)
        agent.observe(design, float(-np.sum((design - 0.5) ** 2)))
    return agent


@pytest.mark.perf
def test_agent_update_components():
    agent = _filled_agent()
    config = agent.config
    assert agent.critic.ensemble_size == 5
    assert (config.batch_size, config.hidden_size) == (10, 64)
    batch = config.batch_size
    rng = np.random.default_rng(2)
    base_optimizer = agent.critic.base_models[0].optimizer
    steps = config.gradient_steps_per_iteration

    measured = {
        "adam_step": _us_per_call(base_optimizer.step, 400),
        "replay_sample": _us_per_call(lambda: agent.buffer.sample(batch, rng), 400),
        "critic_train": _us_per_call(
            lambda: agent.critic.train(agent.buffer, batch, rng), 100
        ),
        "actor_step": _us_per_call(lambda: agent._actor_step(batch), 100),
        "gradient_step": _us_per_call(lambda: agent.update(steps), 2) / steps,
    }
    components = {
        name: {
            "us": us,
            "seed_us": SEED_US[name],
            "speedup": SEED_US[name] / us,
        }
        for name, us in measured.items()
    }
    write_bench_json(
        "agent_update",
        {
            "description": (
                "RL agent update micro-record: microseconds per call for the "
                "Adam step, replay sample, ensemble critic train, actor step "
                "and full gradient step (ensemble 5, batch 10, hidden 64, "
                "design dimension 10), next to the per-array implementation "
                "measured on the host in seed_host."
            ),
            "shape": {
                "ensemble": agent.critic.ensemble_size,
                "batch": batch,
                "hidden": config.hidden_size,
                "dimension": DIMENSION,
                "buffer_fill": BUFFER_FILL,
                "gradient_steps": steps,
            },
            "seed_host": SEED_HOST,
            "components": components,
        },
    )
    for name, record in components.items():
        print(f"{name:14s} {record['us']:9.1f} us  (seed {record['seed_us']:9.1f} us, "
              f"{record['speedup']:.2f}x)")
    assert all(np.isfinite(us) and us > 0 for us in measured.values())
