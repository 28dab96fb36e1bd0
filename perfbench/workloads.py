"""The benchmark's workloads: fixed sizing configs over a fixed seed pool.

Every workload runs the GLOVA sizing loop through ``repro.api.run_sizing``
with ``max_iterations=60`` and ``initial_samples=40``.  One sizing run's
cost depends strongly on its seed (a run that verifies at iteration 2
takes a fifth of one that needs 40 iterations), so a benchmark run sizes
the whole pool of seeds ``0 .. runs_for(seconds) - 1``, and the workload
seed only rotates the order and picks the warm-up seed.  Every run of a
workload therefore does the same work, and the pool size depends only on
``--seconds``, never on how fast the program is: every metric divides by
work counts that do not vary between runs or between program versions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

COMMON = {"max_iterations": 60, "initial_samples": 40}

#: The paper-scale Monte Carlo verification shared by the three
#: ``*-verify`` workloads: 1,000 global-local samples at each of the six
#: VT corners.
MC_VERIFY = {"circuit": "dram", "method": "C-MCG-L", "verification_samples": None}

#: Overrides for the untimed warm-up run: the workload's own circuit,
#: method and backend at a small scale, so imports, lazy caches and the
#: daemon's first jobs are paid before timing starts.
WARMUP = {"max_iterations": 2, "initial_samples": 8, "verification_samples": 3}

#: The smallest pool a run sizes, however short ``--seconds`` is.
MIN_POOL = 3


@dataclass(frozen=True)
class Workload:
    """One workload; why each was chosen is recorded in ``BENCHMARK.json``."""

    name: str
    config: Dict[str, object]
    #: Typical wall seconds of one sizing run on a quiet 2-CPU host; only
    #: sets how many seeds the pool holds for a given ``--seconds``.
    nominal_run_s: float
    #: Runs against a loopback ``repro serve`` job daemon.
    served: bool = False
    #: Shards every batch over ``max(2, nproc)`` worker processes.
    sharded: bool = False

    def runs_for(self, seconds: float) -> int:
        return max(MIN_POOL, round(seconds / self.nominal_run_s))

    def experiment_kwargs(
        self, endpoint: Optional[str], workers: int
    ) -> Dict[str, object]:
        kwargs = dict(COMMON, **self.config)
        if self.served:
            kwargs.update(backend="remote", endpoints=(endpoint,))
        if self.sharded:
            kwargs.update(workers=workers)
        return kwargs


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            "rl-loop",
            {"circuit": "sal", "method": "C-MCL", "verification_samples": 20},
            nominal_run_s=2.4,
        ),
        Workload(
            "mc-verify",
            MC_VERIFY,
            nominal_run_s=1.8,
        ),
        Workload(
            "served-verify",
            MC_VERIFY,
            nominal_run_s=3.0,
            served=True,
        ),
        Workload(
            "sharded-verify",
            MC_VERIFY,
            nominal_run_s=4.5,
            sharded=True,
        ),
    )
}
