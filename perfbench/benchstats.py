"""Arithmetic behind the benchmark's reported numbers.

Pure functions over plain numbers, kept apart from the code that runs the
workloads so the self-tests (``test_benchstats.py``) can check them
without simulating anything.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence

#: A percentile is reported only when at least this many samples lie
#: beyond it; with fewer, the number is one or two unlucky runs.
MIN_SAMPLES_BEYOND = 10


def samples_beyond(count: int, percentile: float) -> int:
    """How many of ``count`` samples lie strictly above ``percentile``."""
    if not 0.0 < percentile < 100.0:
        raise ValueError(f"percentile must lie in (0, 100), got {percentile}")
    return count - math.ceil(count * percentile / 100.0)


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile ``q`` (0 < q < 100) of ``samples``."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    rank = max(1, math.ceil(len(ordered) * q / 100.0))
    return ordered[rank - 1]


def reportable_tail(
    samples: Sequence[float], candidates: Iterable[float] = (99.0, 95.0, 90.0)
) -> Optional[float]:
    """The highest candidate percentile with enough samples beyond it.

    Returns the percentile (not its value), or ``None`` when no candidate
    has :data:`MIN_SAMPLES_BEYOND` samples above it.
    """
    for q in sorted(candidates, reverse=True):
        if samples_beyond(len(samples), q) >= MIN_SAMPLES_BEYOND:
            return q
    return None


@dataclass(frozen=True)
class Ratio:
    """A ratio that keeps the counts it was computed from."""

    numerator: float
    denominator: float

    @property
    def value(self) -> float:
        if self.denominator == 0:
            raise ZeroDivisionError(
                f"ratio {self.numerator}/0 has no value"
            )
        return self.numerator / self.denominator

    def describe(self, numerator_name: str, denominator_name: str) -> str:
        return (
            f"{self.value:.6g} ({numerator_name}={self.numerator:g} / "
            f"{denominator_name}={self.denominator:g})"
        )


@dataclass
class RunOutcome:
    """What one timed sizing run produced, reduced to what is counted."""

    seed: int
    wall_s: float
    #: CPU seconds of every process that worked on the run.
    cpu_s: float = 0.0
    raised: bool = False
    check_failures: List[str] = None  # type: ignore[assignment]
    #: Jobs served by the client's local fallback instead of the daemon.
    fallback_jobs: int = 0
    #: Jobs the client issued to the remote backend, and how many of them
    #: the daemon answered; unequal counts mean some job went elsewhere.
    remote_jobs: int = 0
    remote_answered: int = 0
    success: bool = False
    iterations: int = 0
    simulations: int = 0
    modelled_runtime: float = 0.0

    def __post_init__(self) -> None:
        if self.check_failures is None:
            self.check_failures = []

    @property
    def failed(self) -> bool:
        return (
            self.raised
            or bool(self.check_failures)
            or self.fallback_jobs > 0
            or self.remote_answered != self.remote_jobs
        )


def failed_ops(outcomes: Sequence[RunOutcome]) -> Ratio:
    """Failed sizing runs over runs attempted."""
    return Ratio(sum(o.failed for o in outcomes), len(outcomes))


def end_to_end(
    outcomes: Sequence[RunOutcome], cpu_s: float, wall_s: float
) -> Dict[str, Ratio]:
    """The workload's ratio metrics, each with its base counts.

    ``cpu_s`` and ``wall_s`` are the CPU and wall time of the whole timed
    section.  Failed runs count towards the attempts but contribute no
    work.
    """
    good = [o for o in outcomes if not o.failed]
    successes = [o for o in good if o.success]
    iterations = sum(o.iterations for o in good)
    simulations = sum(o.simulations for o in good)
    return {
        "iters_per_cpu_s": Ratio(iterations, cpu_s),
        "sims_per_cpu_s": Ratio(simulations, cpu_s),
        "iters_per_s": Ratio(iterations, wall_s),
        "sims_per_s": Ratio(simulations, wall_s),
        "sims_per_success": Ratio(simulations, len(successes)),
        "success_rate": Ratio(len(successes), len(outcomes)),
        "modelled_runtime": Ratio(
            sum(o.modelled_runtime for o in successes), len(successes)
        ),
    }


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
@dataclass
class Span:
    """One timed call: ``parent`` is the id of the span that caused it."""

    span_id: int
    name: str
    start: float
    end: float
    parent: Optional[int] = None
    trace_id: Optional[int] = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered(intervals: Iterable[tuple]) -> float:
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Each span's duration minus the time its child spans cover."""
    children: Dict[int, List[tuple]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return {
        span.span_id: span.duration
        - covered(
            (max(s, span.start), min(e, span.end))
            for s, e in children.get(span.span_id, ())
            if min(e, span.end) > max(s, span.start)
        )
        for span in spans
    }
