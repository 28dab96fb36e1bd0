"""Which public calls belong to which layer, and the per-layer metrics.

:data:`TRACED_CALLS` names, for each layer, the public methods the traced
run wraps (module, class, method, span name).  A span's layer is the part
of its name before the first dot.  :func:`layer_metrics` turns the spans
and counters of a traced run into the per-layer numbers listed in
``BENCHMARK.json``; a layer a workload never calls reports zero.
"""

from __future__ import annotations

import importlib
from collections import defaultdict
from typing import Dict, Sequence

from benchstats import Span, self_times
from tracing import Tracer

#: Name of the span wrapped around one whole sizing run (``run_sizing``).
RUN_SPAN = "run"


def _count_grad_steps(counters, args, summary) -> None:
    counters["agent.grad_steps"] += summary.gradient_steps


def _count_verification(counters, args, outcome) -> None:
    if outcome.passed:
        counters["verifier.passed"] += 1
    elif outcome.failure_stage == "mu_sigma":
        counters["verifier.abort_mu_sigma"] += 1
    elif outcome.failure_stage == "full_mc":
        counters["verifier.abort_full_mc"] += 1


def _count_mismatch_rows(counters, args, mismatch_set) -> None:
    counters["mismatch.rows"] += len(mismatch_set)


def _count_service_rows(counters, args, result) -> None:
    # SimulationService.run(self, job) / .submit(self, job)
    counters["service.rows"] += args[1].batch


def _count_engine_rows(counters, args, result) -> None:
    # BatchedMNABackend.evaluate(self, circuit, job)
    counters["engine.rows"] += args[2].batch


#: (module, class, method, span name, count hook)
TRACED_CALLS = (
    ("repro.core.agent", "RiskSensitiveAgent", "update", "agent.update", _count_grad_steps),
    ("repro.core.agent", "RiskSensitiveAgent", "propose", "agent.propose", None),
    ("repro.core.agent", "RiskSensitiveAgent", "predicted_bound", "agent.predict", None),
    ("repro.core.actor_critic", "EnsembleCritic", "predict_components", "agent.predict", None),
    ("repro.core.actor_critic", "Actor", "pretrain_towards", "agent.pretrain", None),
    ("repro.core.nn", "AdamOptimizer", "step", "agent.adam_step", None),
    ("repro.core.actor_critic", "EnsembleCritic", "train", "agent.critic_train", None),
    ("repro.core.actor_critic", "EnsembleCritic", "actor_loss_gradient", "agent.actor_grad", None),
    ("repro.core.replay", "WorstCaseReplayBuffer", "sample", "agent.replay_sample", None),
    ("repro.core.turbo", "TurboSampler", "run", "turbo.run", None),
    ("repro.core.gp", "GaussianProcess", "fit", "turbo.gp_fit", None),
    ("repro.core.verification", "Verifier", "verify", "verifier.verify", _count_verification),
    ("repro.core.mu_sigma", "MuSigmaEvaluator", "evaluate", "verifier.mu_sigma", None),
    ("repro.variation.mismatch", "MismatchSampler", "sample", "mismatch.sample", _count_mismatch_rows),
    ("repro.simulation.service", "SimulationService", "run", "service.run", _count_service_rows),
    ("repro.simulation.service", "SimulationService", "submit", "service.submit", _count_service_rows),
    ("repro.simulation.service", "SimFuture", "result", "service.result", None),
    ("repro.simulation.service", "BatchedMNABackend", "evaluate", "engine.evaluate", _count_engine_rows),
    ("repro.simulation.service", "ShardedDispatcher", "evaluate", "dispatch.evaluate", None),
    ("repro.simulation.service", "ShardedDispatcher", "dispatch", "dispatch.dispatch", None),
    ("repro.simulation.sharding", "ShardHandle", "result", "dispatch.result", None),
    ("repro.simulation.sharding", "WorkerPool", "__init__", "dispatch.pool_start", None),
    ("repro.simulation.sharding", "WorkerPool", "shutdown", "dispatch.pool_stop", None),
    ("repro.simulation.remote", "RemoteBackend", "evaluate", "wire.evaluate", None),
)

#: Per-layer metric name -> unit, in report order.
LAYER_METRICS = {
    "agent.update_s": "s",
    "agent.update_calls": "count",
    "agent.grad_steps": "count",
    "agent.step_us": "us",
    "agent.adam_step_s": "s",
    "agent.critic_train_s": "s",
    "agent.actor_grad_s": "s",
    "agent.replay_sample_s": "s",
    "turbo.run_s": "s",
    "turbo.gp_fit_s": "s",
    "turbo.gp_fits": "count",
    "verifier.self_s": "s",
    "verifier.calls": "count",
    "verifier.sims_per_call": "count",
    "verifier.passed": "count",
    "verifier.abort_mu_sigma": "count",
    "verifier.abort_full_mc": "count",
    "verifier.mu_sigma_s": "s",
    "mismatch.sample_s": "s",
    "mismatch.rows": "count",
    "service.self_s": "s",
    "service.jobs": "count",
    "service.rows": "count",
    "service.rows_per_job": "count",
    "budget.initial": "count",
    "budget.optimization": "count",
    "budget.verification": "count",
    "engine.evaluate_s": "s",
    "engine.calls": "count",
    "engine.rows": "count",
    "engine.us_per_row": "us",
    "dispatch.evaluate_s": "s",
    "dispatch.calls": "count",
    "dispatch.pool_start_s": "s",
    "dispatch.pool_starts": "count",
    "wire.evaluate_s": "s",
    "wire.calls": "count",
    "wire.ms_per_job": "ms",
    "wire.remote_evaluations": "count",
    "wire.fallback_jobs": "count",
    "loop.self_s": "s",
    "trace.coverage": "ratio",
    "trace.overhead_s": "s",
    "trace.overhead_share": "ratio",
    "trace.overhead_cpu_s": "s",
}


def install(tracer: Tracer) -> None:
    """Wrap every call in :data:`TRACED_CALLS`."""
    for module, cls, method, name, hook in TRACED_CALLS:
        owner = getattr(importlib.import_module(module), cls)
        tracer.wrap(owner, method, name, hook)


def _per(numerator: float, denominator: float, scale: float = 1.0) -> float:
    return scale * numerator / denominator if denominator else 0.0


def layer_metrics(
    spans: Sequence[Span],
    counters: Dict[str, int],
    budget: Dict[str, int],
    remote: Dict[str, int],
    untraced_wall_s: float,
) -> Dict[str, float]:
    """Per-layer numbers from one traced run.

    ``budget`` holds the simulations charged per phase over the traced
    sizing runs; ``remote`` the remote backends' own counters
    (``remote_evaluations``, ``fallback_used``).  ``untraced_wall_s`` is
    the wall time of the same sizing runs with tracing off.
    """
    own = self_times(spans)
    total: Dict[str, float] = defaultdict(float)  # inclusive time per name
    self_time: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    for span in spans:
        total[span.name] += span.duration
        self_time[span.name] += own[span.span_id]
        calls[span.name] += 1

    def layer_self(layer: str) -> float:
        return sum(
            value for name, value in self_time.items()
            if name.split(".", 1)[0] == layer
        )

    # The run span's self time is the loop time no named span covers.
    traced_wall = total[RUN_SPAN]
    outside = self_time[RUN_SPAN]
    grad_steps = counters.get("agent.grad_steps", 0)
    engine_s = total["engine.evaluate"]
    engine_rows = counters.get("engine.rows", 0)
    service_jobs = calls["service.run"] + calls["service.submit"]
    wire_s = self_time["wire.evaluate"]
    return {
        "agent.update_s": total["agent.update"],
        "agent.update_calls": calls["agent.update"],
        "agent.grad_steps": grad_steps,
        "agent.step_us": _per(total["agent.update"], grad_steps, 1e6),
        "agent.adam_step_s": total["agent.adam_step"],
        "agent.critic_train_s": self_time["agent.critic_train"],
        "agent.actor_grad_s": self_time["agent.actor_grad"],
        "agent.replay_sample_s": total["agent.replay_sample"],
        "turbo.run_s": layer_self("turbo"),
        "turbo.gp_fit_s": total["turbo.gp_fit"],
        "turbo.gp_fits": calls["turbo.gp_fit"],
        "verifier.self_s": layer_self("verifier"),
        "verifier.calls": calls["verifier.verify"],
        "verifier.sims_per_call": _per(
            budget.get("verification", 0), calls["verifier.verify"]
        ),
        "verifier.passed": counters.get("verifier.passed", 0),
        "verifier.abort_mu_sigma": counters.get("verifier.abort_mu_sigma", 0),
        "verifier.abort_full_mc": counters.get("verifier.abort_full_mc", 0),
        "verifier.mu_sigma_s": total["verifier.mu_sigma"],
        "mismatch.sample_s": total["mismatch.sample"],
        "mismatch.rows": counters.get("mismatch.rows", 0),
        "service.self_s": layer_self("service"),
        "service.jobs": service_jobs,
        "service.rows": counters.get("service.rows", 0),
        "service.rows_per_job": _per(counters.get("service.rows", 0), service_jobs),
        "budget.initial": budget.get("initial_sampling", 0),
        "budget.optimization": budget.get("optimization", 0),
        "budget.verification": budget.get("verification", 0),
        "engine.evaluate_s": engine_s,
        "engine.calls": calls["engine.evaluate"],
        "engine.rows": engine_rows,
        "engine.us_per_row": _per(engine_s, engine_rows, 1e6),
        "dispatch.evaluate_s": layer_self("dispatch")
        - self_time["dispatch.pool_start"],
        "dispatch.calls": calls["dispatch.dispatch"],
        "dispatch.pool_start_s": total["dispatch.pool_start"],
        "dispatch.pool_starts": calls["dispatch.pool_start"],
        "wire.evaluate_s": wire_s,
        "wire.calls": calls["wire.evaluate"],
        "wire.ms_per_job": _per(wire_s, calls["wire.evaluate"], 1e3),
        "wire.remote_evaluations": remote.get("remote_evaluations", 0),
        "wire.fallback_jobs": remote.get("fallback_used", 0),
        "loop.self_s": outside,
        "trace.coverage": _per(traced_wall - outside, traced_wall),
        "trace.overhead_s": traced_wall - untraced_wall_s,
        "trace.overhead_share": _per(traced_wall - untraced_wall_s, untraced_wall_s),
    }
