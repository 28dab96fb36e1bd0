"""End-to-end benchmark of the GLOVA sizing loop.

Usage, from the repository root::

    python3 perfbench/run.py --workload mc-verify --seed 0 --seconds 12 --trace 0

Each workload (``perfbench/workloads.py``) sizes a fixed pool of seeds
through ``repro.api.run_sizing``; ``--seed`` rotates the pool's order and
picks the warm-up seed, and ``--seconds`` sets the pool's size.  The
command sets the workload up several times, each in a fresh interpreter
(``perfbench/session.py``), and reports the median set-up cost; the last
session then measures.

With ``--trace 0`` it prints the end-to-end metrics.  Their times are CPU
seconds of every process that did the work (this one, its worker pools,
the job daemon): on a shared host CPU steal and neighbours stretch wall
time by tens of percent between runs, so wall-clock figures are printed
as diagnostics only.  With ``--trace 1`` it sizes half the pool untraced,
then the same seeds with every layer's public calls wrapped
(``perfbench/layers.py``), and prints the per-layer metrics, which are
wall-clock span times.

Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
The command exits non-zero when any output check fails, and prints no
result when it cannot run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import queue
import signal
import statistics
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import benchstats  # noqa: E402
from benchstats import RunOutcome  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 3
#: Every session, set-up and measurement together, must end by then.
DEADLINE_S = 170.0
#: How long a killed session's leftover processes may take to go away.
GROUP_EXIT_TIMEOUT_S = 5.0

END_TO_END_UNITS = {
    "cpu_s": "s",
    "run_cpu_s.mean": "s",
    "iters_per_cpu_s": "1/s",
    "sims_per_cpu_s": "1/s",
    "sims_per_success": "count",
    "success_rate": "ratio",
    "modelled_runtime": "t_sim",
    "setup_s": "s",
    "rss_peak_mb": "MB",
}


class SessionError(RuntimeError):
    pass


class Session:
    """One ``session.py`` child, read line by line against a deadline."""

    def __init__(self, root: str, arguments: argparse.Namespace, deadline: float):
        env = dict(os.environ)
        src = os.path.join(root, "src")
        env["PYTHONPATH"] = src + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        self.deadline = deadline
        self.process = subprocess.Popen(
            [
                sys.executable, os.path.join(HERE, "session.py"),
                "--workload", arguments.workload,
                "--seed", str(arguments.seed),
                "--seconds", str(arguments.seconds),
                "--trace", str(arguments.trace),
            ],
            cwd=root,
            env=env,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            # Its own process group, so a kill reaches the daemon and the
            # worker pool it started too.
            start_new_session=True,
        )
        self.lines: "queue.Queue[Optional[str]]" = queue.Queue()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _read(self) -> None:
        for line in self.process.stdout:
            self.lines.put(line.rstrip("\n"))
        self.lines.put(None)

    def expect(self, prefix: str) -> str:
        """The rest of the first line starting with ``prefix``."""
        while True:
            remaining = self.deadline - time.monotonic()
            try:
                line = self.lines.get(timeout=max(remaining, 0.0))
            except queue.Empty:
                raise SessionError(f"no {prefix.strip()!r} before the deadline")
            if line is None:
                raise SessionError(
                    f"session ended (code {self.process.wait()}) before "
                    f"{prefix.strip()!r}"
                )
            if line.startswith(prefix):
                return line[len(prefix):]

    def send(self, command: str) -> None:
        self.process.stdin.write(command + "\n")
        self.process.stdin.flush()

    def finish(self) -> None:
        """Wait for a clean exit; anything else is an error."""
        self.process.stdin.close()
        try:
            code = self.process.wait(timeout=max(self.deadline - time.monotonic(), 1.0))
        except subprocess.TimeoutExpired:
            raise SessionError("session did not exit before the deadline")
        self._reader.join()
        if code != 0:
            raise SessionError(f"session exited with code {code}")

    def kill(self) -> None:
        """Stop the session's whole process group and wait for it to end.

        After a clean exit the group is normally empty already; after an
        error it may still hold the daemon or pool workers.
        """
        if self.process.poll() is None:
            self._signal_group(signal.SIGKILL)
        self.process.wait()
        deadline = time.monotonic() + GROUP_EXIT_TIMEOUT_S
        while self._signal_group(signal.SIGKILL) and time.monotonic() < deadline:
            time.sleep(0.05)

    def _signal_group(self, signum: int) -> bool:
        """Signal the group; ``False`` once no process is left in it."""
        try:
            os.killpg(self.process.pid, signum)
        except ProcessLookupError:
            return False
        return True


def run_sessions(root: str, arguments: argparse.Namespace):
    """Set up :data:`SETUP_REPEATS` times; the last session measures.

    Returns each set-up's ``(wall seconds, CPU seconds)`` and the result.
    """
    deadline = time.monotonic() + DEADLINE_S
    setups: List[Tuple[float, float]] = []
    for index in range(SETUP_REPEATS):
        start = time.perf_counter()
        session = Session(root, arguments, deadline)
        try:
            ready = json.loads(session.expect("PERFBENCH READY "))
            setups.append((time.perf_counter() - start, ready["cpu_s"]))
            if index < SETUP_REPEATS - 1:
                session.send("exit")
                session.finish()
                continue
            session.send("run")
            result = json.loads(session.expect("PERFBENCH RESULT "))
            session.finish()
        finally:
            session.kill()
    return setups, result


def _samples(name: str, values: List[float], unit: str) -> str:
    tail = benchstats.reportable_tail(values)
    return (
        f"{name}: n={len(values)} p50={benchstats.median(values):.4f}{unit} "
        + (
            f"p{tail:g}={benchstats.percentile(values, tail):.4f}{unit}"
            if tail is not None
            else f"(no tail: fewer than {benchstats.MIN_SAMPLES_BEYOND} samples beyond p90)"
        )
        + " samples=" + ",".join(f"{value:.4f}" for value in values)
    )


#: Base counts printed beside every ratio.
RATIO_BASES = {
    "iters_per_cpu_s": ("iterations", "cpu_s"),
    "sims_per_cpu_s": ("simulations", "cpu_s"),
    "iters_per_s": ("iterations", "wall_s"),
    "sims_per_s": ("simulations", "wall_s"),
    "sims_per_success": ("simulations", "successes"),
    "success_rate": ("successes", "runs"),
    "modelled_runtime": ("modelled_runtime_sum", "successes"),
}


def timed_report(
    result: Dict, outcomes: List[RunOutcome], setups: List[Tuple[float, float]]
) -> Tuple[List[str], Dict[str, float]]:
    """Report lines and end-to-end metrics of a timed (untraced) run.

    Wall-clock figures are printed as diagnostics; the metrics use CPU
    seconds, which host CPU steal does not inflate.
    """
    ratios = benchstats.end_to_end(outcomes, result["cpu_s"], result["wall_s"])
    lines = [
        f"cpu_s: {result['cpu_s']:.4f}s over wall_s={result['wall_s']:.4f}s",
        _samples("run_cpu_s", [o.cpu_s for o in outcomes], "s"),
        _samples("run_s (wall)", [o.wall_s for o in outcomes], "s"),
    ]
    lines += [
        f"{name}: " + ratio.describe(*RATIO_BASES[name])
        for name, ratio in ratios.items()
        if ratio.denominator
    ]
    lines.append(_samples("setup_s (cpu)", [cpu for _, cpu in setups], "s"))
    lines.append(_samples("setup_s (wall)", [wall for wall, _ in setups], "s"))
    lines.append(f"rss_peak_mb: {result['rss_mb']:.1f}")
    metrics = {
        "cpu_s": result["cpu_s"],
        # The pool's seeds differ fivefold in cost, so its median is one
        # seed's run and carries that run's noise; the mean does not.
        "run_cpu_s.mean": result["cpu_s"] / len(outcomes),
        "iters_per_cpu_s": ratios["iters_per_cpu_s"].value,
        "sims_per_cpu_s": ratios["sims_per_cpu_s"].value,
        "sims_per_success": ratios["sims_per_success"].value,
        "success_rate": ratios["success_rate"].value,
        "modelled_runtime": ratios["modelled_runtime"].value,
        "setup_s": statistics.median(cpu for _, cpu in setups),
        "rss_peak_mb": result["rss_mb"],
    }
    return lines, metrics


def common_report(result: Dict, outcomes: List[RunOutcome]) -> List[str]:
    """Failures and the environment stamp, printed for every run."""
    lines = [
        "failed_ops: "
        + benchstats.failed_ops(outcomes).describe("failed", "attempted")
        + " ratio"
    ]
    for outcome in outcomes:
        lines += [f"check failed: {problem}" for problem in outcome.check_failures]
    lines += [f"session failed: {problem}" for problem in result["session_failures"]]
    lines.append(
        "env: "
        + json.dumps(
            dict(result["env"], steal=result["steal"], workers=result["workers"])
        )
    )
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    arguments = parser.parse_args(argv)
    if arguments.seed < 0:
        parser.error("--seed must be non-negative")

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "api.py")):
        print(
            "perfbench: no src/repro here; run from the repository root",
            file=sys.stderr,
        )
        return 2
    try:
        setups, result = run_sessions(root, arguments)
    except SessionError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 3

    outcomes = [RunOutcome(**o) for o in result["outcomes"]]
    failed = sum(o.failed for o in outcomes)
    correct = failed == 0 and not result["session_failures"]
    if arguments.trace:
        from layers import LAYER_METRICS

        values, units = result["layers"], LAYER_METRICS
        lines = [
            f"trace: coverage={values['trace.coverage']:.4f} of traced wall, "
            f"overhead={values['trace.overhead_s']:.4f}s "
            f"({values['trace.overhead_share']:.4f} of untraced wall), "
            f"overhead_cpu={values['trace.overhead_cpu_s']:.4f}s"
        ]
    else:
        if not any(o.success for o in outcomes if not o.failed):
            for line in common_report(result, outcomes):
                print(line)
            print("perfbench: no successful run; ratios are undefined", file=sys.stderr)
            return 4
        lines, values = timed_report(result, outcomes, setups)
        units = END_TO_END_UNITS
    for line in lines + common_report(result, outcomes):
        print(line)
    metrics = {
        name: {"value": values[name], "unit": unit} for name, unit in units.items()
    }
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": len(outcomes),
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
