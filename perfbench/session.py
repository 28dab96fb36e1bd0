"""One benchmark session: set a workload up, then time it or trace it.

Started by ``run.py`` as its own interpreter, so that interpreter start and
imports count towards set-up.  The protocol on stdout/stdin is three
lines: the session prints ``PERFBENCH READY <json>`` once set up (with
the CPU seconds the set-up took), reads ``run`` or ``exit``, and after a
run prints ``PERFBENCH RESULT <json>``.
Everything else the session or the library prints is ignored.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import subprocess
import sys
import time
import traceback
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

from repro.api import ExperimentConfig, RunReport, run_sizing  # noqa: E402
from repro.core.spec import DesignSpec  # noqa: E402
from repro.simulation.remote import RemoteBackend  # noqa: E402

import envstamp  # noqa: E402
import layers  # noqa: E402
from benchstats import RunOutcome  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WARMUP, WORKLOADS, Workload  # noqa: E402

READY = "PERFBENCH READY "
RESULT = "PERFBENCH RESULT "
DAEMON_START_TIMEOUT_S = 60.0
DAEMON_STOP_TIMEOUT_S = 30.0


# ----------------------------------------------------------------------
# Remote client probe and job daemon
# ----------------------------------------------------------------------
class RemoteProbe:
    """Counts what every :class:`RemoteBackend` did, tracing on or off.

    Wraps the constructor (to keep each backend the runs build) and
    ``evaluate`` (to count the jobs issued), so a run whose jobs the
    daemon did not all answer is caught even when the client only warned.
    """

    def __init__(self) -> None:
        self.backends: List[RemoteBackend] = []
        self.jobs = 0
        self._originals = (RemoteBackend.__init__, RemoteBackend.evaluate)
        probe = self
        init, evaluate = self._originals

        def counting_init(backend, *args, **kwargs):
            init(backend, *args, **kwargs)
            probe.backends.append(backend)

        def counting_evaluate(backend, circuit, job):
            probe.jobs += 1
            return evaluate(backend, circuit, job)

        RemoteBackend.__init__ = counting_init
        RemoteBackend.evaluate = counting_evaluate

    def uninstall(self) -> None:
        RemoteBackend.__init__, RemoteBackend.evaluate = self._originals

    def totals(self) -> Tuple[int, int, int]:
        """(jobs issued, jobs the daemon answered, jobs run by fallback)."""
        return (
            self.jobs,
            sum(b.remote_evaluations for b in self.backends),
            sum(b.fallback_used for b in self.backends),
        )


class Daemon:
    """A ``repro serve --mode job --workers 1`` daemon on an ephemeral port."""

    def __init__(self) -> None:
        self.log_path = os.path.join(OUT_DIR, f"daemon-{os.getpid()}.log")
        self.process: Optional[subprocess.Popen] = None
        self.endpoint: Optional[str] = None

    def start(self) -> str:
        self._log = open(self.log_path, "w")
        self.process = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve", "--mode", "job",
                "--backend", "batched", "--workers", "1", "--port", "0",
                # Every job is simulated: no answer from the retention store.
                "--retention-seconds", "0",
            ],
            stdout=self._log,
            stderr=subprocess.STDOUT,
        )
        deadline = time.monotonic() + DAEMON_START_TIMEOUT_S
        marker = "repro serve listening on "
        while time.monotonic() < deadline:
            with open(self.log_path) as handle:
                for line in handle:
                    if line.startswith(marker):
                        self.endpoint = line[len(marker):].strip()
                        return self.endpoint
            if self.process.poll() is not None:
                break
            time.sleep(0.005)
        self.stop()
        raise RuntimeError(f"daemon did not start; see {self.log_path}")

    def peak_rss_mb(self) -> float:
        try:
            with open(f"/proc/{self.process.pid}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        return int(line.split()[1]) / 1024.0
        except OSError:
            pass
        return 0.0

    def stop(self) -> Optional[str]:
        """SIGTERM, wait for the drain; a problem is returned as text."""
        if self.process is None:
            return None
        process, self.process = self.process, None
        problem = None
        if process.poll() is None:
            process.send_signal(signal.SIGTERM)
            try:
                process.wait(timeout=DAEMON_STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
                problem = "daemon did not drain within its stop timeout"
        if problem is None and process.returncode != 0:
            problem = f"daemon exited with code {process.returncode}"
        self._log.close()
        return problem


class CpuClock:
    """CPU seconds used by this process, its reaped children (the worker
    pools, which every sizing run joins) and the daemon, if any."""

    def __init__(self, daemon: Optional[Daemon] = None) -> None:
        self.daemon = daemon
        self._tick = os.sysconf("SC_CLK_TCK")

    def __call__(self) -> float:
        total = 0.0
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
            usage = resource.getrusage(who)
            total += usage.ru_utime + usage.ru_stime
        if self.daemon is not None and self.daemon.process is not None:
            with open(f"/proc/{self.daemon.process.pid}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
            # Fields 14 and 15 of stat(5): utime and stime, in clock ticks.
            total += (int(fields[11]) + int(fields[12])) / self._tick
        return total


# ----------------------------------------------------------------------
# Sizing runs and their output checks
# ----------------------------------------------------------------------
def size_one(
    config: ExperimentConfig,
    seed: int,
    probe: Optional[RemoteProbe],
    cpu: CpuClock,
) -> Tuple[RunOutcome, Optional[RunReport]]:
    """One sizing run through the public API, timed, with fallback counts."""
    before = probe.totals() if probe is not None else (0, 0, 0)
    cpu_start = cpu()
    start = time.perf_counter()
    try:
        report = run_sizing(config.with_overrides(seeds=(seed,))).runs[0]
    except Exception:
        traceback.print_exc()
        return RunOutcome(seed, time.perf_counter() - start, raised=True), None
    wall = time.perf_counter() - start
    cpu_s = cpu() - cpu_start
    after = probe.totals() if probe is not None else (0, 0, 0)
    jobs, answered, fallback = (b - a for a, b in zip(before, after))
    outcome = RunOutcome(
        seed,
        wall,
        cpu_s=cpu_s,
        fallback_jobs=fallback,
        remote_jobs=jobs,
        remote_answered=answered,
        success=report.success,
        iterations=report.iterations,
        simulations=report.simulations["total"],
        modelled_runtime=report.runtime,
    )
    return outcome, report


def check_report(report: RunReport, config: ExperimentConfig) -> List[str]:
    """Budget and final-design checks on one run's report."""
    problems = []
    phases = {k: v for k, v in report.simulations.items() if k != "total"}
    if sum(phases.values()) != report.simulations["total"]:
        problems.append(
            f"seed {report.seed}: phase budgets {phases} do not sum to "
            f"total {report.simulations['total']}"
        )
    if report.success:
        if report.final_design is None:
            return problems + [f"seed {report.seed}: success without a design"]
        circuit = config.build_circuit()
        metrics = circuit.evaluate(np.asarray(report.final_design))
        if not DesignSpec.from_circuit(circuit).is_feasible(metrics):
            problems.append(
                f"seed {report.seed}: final design misses a spec at the "
                f"typical condition"
            )
    return problems


IDENTITY_FIELDS = ("success", "iterations", "simulations", "final_design")


def check_against_in_process(
    report: RunReport, config: ExperimentConfig
) -> List[str]:
    """The served or sharded report must equal the in-process one."""
    reference_config = config.with_overrides(
        backend="batched", workers=1, endpoints=None, seeds=(report.seed,)
    )
    reference = run_sizing(reference_config).runs[0]
    return [
        f"seed {report.seed}: {name} differs from the in-process run "
        f"({getattr(report, name)!r} != {getattr(reference, name)!r})"
        for name in IDENTITY_FIELDS
        if getattr(report, name) != getattr(reference, name)
    ]


def size_all(
    config: ExperimentConfig,
    seeds: List[int],
    probe: Optional[RemoteProbe],
    cpu: CpuClock,
    tracer: Optional[Tracer] = None,
) -> Tuple[List[RunOutcome], List[Optional[RunReport]], float]:
    """Size every seed in turn; returns outcomes, reports and section wall."""
    outcomes, reports = [], []
    start = time.perf_counter()
    for seed in seeds:
        if tracer is None:
            outcome, report = size_one(config, seed, probe, cpu)
        else:
            tracer.trace_id = seed
            outcome, report = tracer.call(
                layers.RUN_SPAN, size_one, config, seed, probe, cpu
            )
        outcomes.append(outcome)
        reports.append(report)
    return outcomes, reports, time.perf_counter() - start


def check_all(
    workload: Workload,
    config: ExperimentConfig,
    outcomes: List[RunOutcome],
    reports: List[Optional[RunReport]],
) -> None:
    """Run every output check (untimed) and record failures per run."""
    for outcome, report in zip(outcomes, reports):
        if report is None:
            continue
        outcome.check_failures.extend(check_report(report, config))
        if workload.served or workload.sharded:
            outcome.check_failures.extend(
                check_against_in_process(report, config)
            )
        if outcome.fallback_jobs or outcome.remote_answered != outcome.remote_jobs:
            outcome.check_failures.append(
                f"seed {outcome.seed}: {outcome.fallback_jobs} job(s) ran on "
                f"the local fallback; the daemon answered "
                f"{outcome.remote_answered} of {outcome.remote_jobs}"
            )


def budget_totals(reports: List[Optional[RunReport]]) -> Dict[str, int]:
    totals: Dict[str, int] = {}
    for report in reports:
        if report is not None:
            for phase, count in report.simulations.items():
                totals[phase] = totals.get(phase, 0) + count
    return totals


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def parse_arguments(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args(argv)


def measure(
    workload: Workload,
    config: ExperimentConfig,
    seeds: List[int],
    probe: Optional[RemoteProbe],
    cpu: CpuClock,
    trace: bool,
) -> Dict[str, object]:
    """The timed (or traced) section and its checks."""
    host_before, cpu_before = envstamp.cpu_times(), cpu()
    outcomes, reports, wall = size_all(config, seeds, probe, cpu)
    host_after, cpu_after = envstamp.cpu_times(), cpu()
    result: Dict[str, object] = {
        "wall_s": wall,
        "cpu_s": cpu_after - cpu_before,
        "steal": envstamp.steal_fraction(host_before, host_after),
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if trace:
        remote_before = probe.totals() if probe is not None else (0, 0, 0)
        tracer = Tracer()
        layers.install(tracer)
        try:
            traced, traced_reports, _ = size_all(
                config, seeds, probe, cpu, tracer
            )
        finally:
            tracer.uninstall()
        tracer.write(
            os.path.join(OUT_DIR, f"spans-{workload.name}-seed{seeds[0]}.jsonl")
        )
        remote_after = probe.totals() if probe is not None else (0, 0, 0)
        remote = {
            "remote_evaluations": remote_after[1] - remote_before[1],
            "fallback_used": remote_after[2] - remote_before[2],
        }
        result["layers"] = layers.layer_metrics(
            tracer.spans,
            tracer.counters,
            budget_totals(traced_reports),
            remote,
            untraced_wall_s=sum(o.wall_s for o in outcomes),
        )
        # Wall time swings with host steal; CPU time shows the cost itself.
        result["layers"]["trace.overhead_cpu_s"] = sum(
            o.cpu_s for o in traced
        ) - sum(o.cpu_s for o in outcomes)
        outcomes += traced
        reports += traced_reports
    check_all(workload, config, outcomes, reports)
    result["outcomes"] = [vars(outcome) for outcome in outcomes]
    return result


def main(argv=None) -> int:
    arguments = parse_arguments(argv)
    workload = WORKLOADS[arguments.workload]
    os.makedirs(OUT_DIR, exist_ok=True)
    pool = workload.runs_for(arguments.seconds)
    seeds = [(arguments.seed + index) % pool for index in range(pool)]
    if arguments.trace:
        # Half the seeds, sized twice: untraced, then traced.
        seeds = seeds[: max(2, pool // 2)]
    workers = max(2, envstamp.nproc())
    daemon = Daemon() if workload.served else None
    probe = RemoteProbe() if workload.served else None
    cpu = CpuClock(daemon)
    try:
        endpoint = daemon.start() if daemon is not None else None
        config = ExperimentConfig(
            seeds=(arguments.seed,), **workload.experiment_kwargs(endpoint, workers)
        )
        # Warm-up: a seed outside the timed set, at a small scale.
        warmup, warmup_report = size_one(
            config.with_overrides(**WARMUP), pool + arguments.seed, probe, cpu
        )
        if warmup_report is None or warmup.failed:
            raise RuntimeError(f"warm-up run failed: {vars(warmup)}")
        print(READY + json.dumps({"cpu_s": cpu()}), flush=True)
        command = sys.stdin.readline().strip()
        if command != "run":
            problem = daemon.stop() if daemon is not None else None
            return 0 if problem is None else 1
        result = measure(
            workload, config, seeds, probe, cpu, bool(arguments.trace)
        )
        if daemon is not None:
            result["rss_mb"] += daemon.peak_rss_mb()
        problem = daemon.stop() if daemon is not None else None
        result["session_failures"] = [problem] if problem else []
        result["env"] = envstamp.stamp()
        result["workers"] = workers if workload.sharded else 1
        print(RESULT + json.dumps(result), flush=True)
        return 0
    finally:
        if daemon is not None:
            daemon.stop()
        if probe is not None:
            probe.uninstall()


if __name__ == "__main__":
    sys.exit(main())
