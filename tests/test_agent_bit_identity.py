"""Golden pins: seeded sizing runs and agent updates stay bit-identical.

The agent's hot path (flat-buffer Adam, one shared critic forward per
actor step, array-backed replay batches) is a pure re-arrangement of the
per-array, list-backed implementation that preceded it: the same float
operations in the same order.  These goldens were recorded with that
earlier implementation, so any change to a seeded trajectory — one ulp
in one weight is enough to move a design — shows up here.

Every :class:`~repro.api.RunReport` field is compared.  Integers,
booleans and strings are pinned as values; floats are pinned through a
sha256 digest of their full-precision ``repr`` (``None`` digests to
``dc937b59892604f5``).
"""

import hashlib

import numpy as np
import pytest

from repro import api
from repro.core.agent import RiskSensitiveAgent
from repro.core.config import GlovaConfig
from repro.core.replay import WorstCaseReplayBuffer

SMALL = {"initial_samples": 20, "verification_samples": 8}

CASES = {
    "glova-sal": dict(circuit="sal", method="C-MCL", seeds=(0, 1), max_iterations=30),
    "glova-fia": dict(circuit="fia", method="C-MCL", seeds=(0,), max_iterations=30),
    "glova-dram": dict(circuit="dram", method="C-MCG-L", seeds=(0,), max_iterations=30),
    "pvtsizing-sal": dict(
        circuit="sal", method="C-MCL", algorithm="pvtsizing", seeds=(0,), max_iterations=10
    ),
    "robustanalog-sal": dict(
        circuit="sal", method="C-MCL", algorithm="robustanalog", seeds=(0,), max_iterations=10
    ),
}

FLOAT_FIELDS = ("runtime", "final_design", "final_design_physical", "final_metrics")


def _run(seed, success, iterations, simulations, digests, attempts, method, circuit):
    initial, optimization, verification = simulations
    return {
        "seed": seed,
        "success": success,
        "iterations": iterations,
        "simulations": {
            "initial_sampling": initial,
            "optimization": optimization,
            "verification": verification,
            "total": initial + optimization + verification,
        },
        "verification_attempts": attempts,
        "method": method,
        "circuit": circuit,
        **dict(zip(FLOAT_FIELDS, digests)),
    }


_NONE = "dc937b59892604f5"

GOLDEN = {
    "glova-sal": [
        _run(0, True, 28, (200, 84, 237),
             ("12845c8e1fe232c3", "2ebea8d5b32bf139", "a6532a9d8f09eb73", "57e417b404191772"),
             1, "C-MCL", "strongarm_latch"),
        _run(1, False, 30, (196, 90, 3),
             ("ee36dd09533bf8d7", _NONE, _NONE, _NONE),
             1, "C-MCL", "strongarm_latch"),
    ],
    "glova-fia": [
        _run(0, True, 19, (196, 57, 252),
             ("92d81e059c410ad9", "1f9cf581dea58adb", "99fa3affceda15bd", "25035ad75c0aefd0"),
             2, "C-MCL", "floating_inverter_amplifier"),
    ],
    "glova-dram": [
        _run(0, True, 2, (46, 6, 57),
             ("585348dbd28810f9", "3e47152bbd98740a", "f5bbece9c38b51fb", "4cc72c276b9e658f"),
             2, "C-MCG-L", "dram_core_ocsa"),
    ],
    "pvtsizing-sal": [
        _run(0, True, 6, (19, 540, 240),
             ("f8aa7c4aac45462c", "fd94c3fd4370ff64", "929b37eac05dea26", "44d2c11b8b8f1519"),
             1, "pvtsizing/C-MCL", "strongarm_latch"),
    ],
    "robustanalog-sal": [
        _run(0, False, 10, (20, 276, 0),
             ("abca6c3d36b80c93", _NONE, _NONE, _NONE),
             0, "robustanalog/C-MCL", "strongarm_latch"),
    ],
}

#: Digest of the agent state after :func:`_agent_state_digest`'s updates.
AGENT_STATE_GOLDEN = "bcbf93877119cae5"


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def _fingerprint(run: api.RunReport) -> dict:
    fields = run.to_dict()
    for key in FLOAT_FIELDS:
        value = fields[key]
        if isinstance(value, dict):
            value = sorted(value.items())
        fields[key] = _digest(value)
    return fields


@pytest.mark.parametrize("name", sorted(CASES))
def test_seeded_report_matches_golden(name):
    report = api.run_experiment(api.ExperimentConfig(**CASES[name], **SMALL))
    assert [_fingerprint(run) for run in report.runs] == GOLDEN[name]


def _agent_state_digest() -> str:
    """Twelve propose/observe/update rounds on an 8-slot buffer (it wraps)."""
    config = GlovaConfig(seed=3, batch_size=10, gradient_steps_per_iteration=25)
    agent = RiskSensitiveAgent(6, config)
    agent.buffer = WorstCaseReplayBuffer(capacity=8)
    rng = np.random.default_rng(11)
    losses = []
    design = rng.uniform(size=6)
    for _ in range(12):
        design = agent.propose(design)
        agent.observe(design, float(-np.sum((design - 0.5) ** 2)))
        summary = agent.update()
        losses += [summary.critic_loss, summary.actor_loss]
    state = hashlib.sha256(repr(losses).encode())
    networks = [agent.actor.network] + [model.network for model in agent.critic.base_models]
    for network in networks:
        for parameter in network.parameters():
            state.update(np.ascontiguousarray(parameter).tobytes())
    state.update(agent.buffer.all_designs().tobytes())
    state.update(agent.buffer.all_rewards().tobytes())
    return state.hexdigest()[:16]


def test_agent_updates_match_golden():
    assert _agent_state_digest() == AGENT_STATE_GOLDEN
