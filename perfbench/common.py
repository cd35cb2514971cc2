"""Shared parts of the workloads: context, timeline, reference check, output.

A workload run has three phases.  *Set-up* builds what the first timed
operation needs; its time is the median over repeats, each made in a
fresh process so memo caches start cold as they do for users.  The
*timed phase* is a fixed number of rounds, derived from ``--seconds``
and the workload's inputs, never from how fast the host is, so work
counters repeat exactly for a given seed.  Between rounds, with nothing
in flight, the host-speed probe is sampled; each round's wall time is
rescaled to the reference host speed pinned in ``config.json``, by the
probe parts the workload's ``probe`` setting names.  The *check*
compares every returned record with the offline ``Evaluator``
reference for the same inputs.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import resource
import signal
import statistics
import subprocess
import time
from dataclasses import dataclass, field
from pathlib import Path

from stats import TooFewSamples, block_median_rate, normalise, percentile, speed_factors

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Run outputs: cached reference digests, per-run detail files, shim dumps.
OUT_DIR = ROOT / ".perfbench"


def load_config() -> dict:
    return json.loads((BENCH_DIR / "config.json").read_text())


def cpu_count() -> int:
    return len(os.sched_getaffinity(0))


@dataclass
class Context:
    """Everything a workload needs from the command line and the config."""

    workload: str
    seed: int
    seconds: int
    trace: bool
    config: dict
    dataset_seeds: dict[str, int]
    jobs: int = field(default_factory=cpu_count)


class Timeline:
    """Round timings, latencies and the probe samples taken between rounds.

    The probe is sampled before the first round and after every round, so
    each round has a probe on either side and is rescaled by their mean.
    """

    def __init__(self, probe, reference_us: float) -> None:
        self.probe = probe
        self.reference_us = reference_us
        self.round_seconds: list[float] = []
        self.round_latencies: list[list[float]] = []
        self.round_ops: list[int] = []
        self.release_lags: list[float] = []
        self._first_probe = 0

    def start(self) -> None:
        self._first_probe = len(self.probe.samples_us)
        self.probe.sample()

    def add_round(self, seconds: float, latencies: list[float], ops: int) -> None:
        """Record one finished round, then sample the probe."""
        self.round_seconds.append(seconds)
        self.round_latencies.append(latencies)
        self.round_ops.append(ops)
        self.probe.sample()

    @property
    def probes_us(self) -> list[float]:
        return self.probe.samples_us[self._first_probe:]

    def round_factors(self) -> list[float]:
        return speed_factors(self.probes_us, self.reference_us, len(self.round_seconds))

    def summary(self, tail_pct: float, blocks: int) -> dict:
        """Normalised and raw throughput and latency percentiles.

        Throughput is the median over ``blocks`` equal runs of consecutive
        rounds (fewer if there are fewer rounds) of the operations each
        block completed per normalised second, so one block caught by a
        host stall does not move it.
        """
        blocks = min(blocks, len(self.round_seconds))
        factors = self.round_factors()
        normalised = normalise(self.round_seconds, factors)
        ops = sum(self.round_ops)
        raw_total = sum(self.round_seconds)
        latencies = [
            latency * factor
            for round_latencies, factor in zip(self.round_latencies, factors)
            for latency in round_latencies
        ]
        raw_latencies = [lat for lats in self.round_latencies for lat in lats]
        return {
            "ops": ops,
            "rounds": len(self.round_seconds),
            "throughput_per_s": block_median_rate(self.round_ops, normalised, blocks),
            "p50_ms": 1000.0 * percentile(latencies, 50),
            "tail_ms": 1000.0 * percentile(latencies, tail_pct),
            "tail_pct": tail_pct,
            "latency_samples": len(latencies),
            "host": {
                "raw_seconds": raw_total,
                "normalised_seconds": sum(normalised),
                "raw_throughput_per_s": ops / raw_total,
                "raw_p50_ms": 1000.0 * percentile(raw_latencies, 50),
                "raw_tail_ms": 1000.0 * percentile(raw_latencies, tail_pct),
                "probe_us": statistics.median(self.probes_us),
                "probe_us_min": min(self.probes_us),
                "probe_us_max": max(self.probes_us),
                "probe_samples": len(self.probes_us),
                "probe_busy_pct": max(self.probe.busy_pct[self._first_probe:]),
                "probe_parts": self.probe.parts,
                "probe_part_us": {
                    part: statistics.median(series[self._first_probe:])
                    for part, series in self.probe.part_us.items()
                },
                "probe_series_us": self.probes_us,
                "probe_part_series_us": {
                    part: series[self._first_probe:]
                    for part, series in self.probe.part_us.items()
                },
                "round_seconds": self.round_seconds,
                "blocks": blocks,
            },
        }


def layer_percentile(values: list[float], pct: float, scale: float = 1.0) -> tuple[float, int]:
    """``(percentile × scale, sample count)``, or ``(0.0, count)`` when too few."""
    try:
        return percentile(values, pct) * scale, len(values)
    except TooFewSamples:
        return 0.0, len(values)


# -- the program's footprint -----------------------------------------------


def peak_rss_mb(pids: list[int]) -> float:
    """Peak RSS of this process plus each listed program process, in MB."""
    total_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            continue
    return total_kb / 1024.0


# -- processes ----------------------------------------------------------------


def run_child(argv: list[str], cwd: Path, timeout_s: float) -> subprocess.CompletedProcess:
    """Run ``argv`` in a session of its own and wait for it.

    On timeout every process of that session is killed and reaped, so a
    stuck child leaves neither its pool workers nor its helpers behind.
    """
    with subprocess.Popen(
        argv, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    ) as child:
        try:
            stdout, stderr = child.communicate(timeout=timeout_s)
        except BaseException:
            try:
                os.killpg(child.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            child.communicate()
            raise
    return subprocess.CompletedProcess(argv, child.returncode, stdout, stderr)


def end_helper_processes(timeout_s: float = 10.0) -> None:
    """End this process's ``multiprocessing`` children and resource tracker.

    Starting a spawn-context process (the probe's helpers, the load
    generator, the gateway's shards) also starts ``multiprocessing``'s
    resource tracker, which would outlive this process by a moment.
    Closing its pipe ends it; this waits until it has ended, and kills it
    if it has not within ``timeout_s``.
    """
    for proc in multiprocessing.active_children():
        proc.terminate()
        proc.join(timeout_s)
        if proc.is_alive():
            proc.kill()
            proc.join()
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    with tracker._lock:
        fd, pid = tracker._fd, tracker._pid
        tracker._fd = tracker._pid = None
    if fd is None:
        return
    os.close(fd)
    if pid is None:
        return
    deadline = time.monotonic() + timeout_s
    try:
        while os.waitpid(pid, os.WNOHANG) == (0, 0):
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                return
            time.sleep(0.005)
    except ChildProcessError:
        pass  # already reaped


# -- offline reference -------------------------------------------------------


def source_fingerprint() -> str:
    """Hash of the program's source tree: a cached reference is only reused for it."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def reference_digests(
    dataset_config, pairs: list[tuple[str, str]], method_seed: int
) -> dict[str, str]:
    """Offline ``Evaluator`` record digests for ``(method, example_id)`` pairs.

    Computed with the plain sequential evaluator on a freshly built
    dataset, and cached under ``.perfbench/`` keyed by the program
    source, the dataset recipe, the pairs and the method seed.
    """
    from repro.core.evaluator import Evaluator
    from repro.datagen.benchmark import build_benchmark
    from repro.methods.zoo import build_method
    from repro.serve.gateway.wire import record_digest

    pairs = sorted(set(pairs))
    key = hashlib.sha256(
        json.dumps([source_fingerprint(), repr(dataset_config), pairs, method_seed]).encode()
    ).hexdigest()[:20]
    path = OUT_DIR / f"reference-{key}.json"
    if path.exists():
        return json.loads(path.read_text())
    dataset = build_benchmark(dataset_config)
    evaluator = Evaluator(dataset, measure_timing=False)
    examples = {example.example_id: example for example in dataset.examples}
    digests: dict[str, str] = {}
    methods: dict[str, object] = {}
    for method_name, example_id in pairs:
        if method_name not in methods:
            method = build_method(method_name, seed=method_seed)
            method.prepare(dataset)
            methods[method_name] = method
        record = evaluator.evaluate_example(methods[method_name], examples[example_id])
        digests[answer_key(dataset.name, method_name, example_id)] = record_digest(record)
    dataset.close()
    OUT_DIR.mkdir(exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(digests, sort_keys=True))
    tmp.replace(path)
    return digests


def answer_key(dataset: str, method: str, example_id: str | None) -> str:
    return f"{dataset}\t{method}\t{example_id}"


@dataclass
class Answer:
    """One operation's outcome as the benchmark checks it."""

    dataset: str
    method: str
    example_id: str | None
    ok: bool
    digest: str | None = None
    ex: bool = False
    em: bool = False
    billed_tokens: int = 0


def mismatches(answers: list[Answer], reference: dict[str, str]) -> list[str]:
    """Keys of the OK answers whose record digest differs from the reference."""
    keys = [answer_key(a.dataset, a.method, a.example_id) for a in answers]
    return [key for a, key in zip(answers, keys) if a.ok and reference.get(key) != a.digest]


def quality(answers: list[Answer]) -> dict:
    """OK share, EX and EM of the OK answers, and the tokens they billed."""
    ok = [a for a in answers if a.ok]
    return {
        "ok": len(ok),
        "failed": len(answers) - len(ok),
        "ok_pct": 100.0 * len(ok) / max(len(answers), 1),
        "ex_pct": 100.0 * sum(a.ex for a in ok) / max(len(ok), 1),
        "em_pct": 100.0 * sum(a.em for a in ok) / max(len(ok), 1),
        "billed_tokens": sum(a.billed_tokens for a in ok),
    }


# -- set-up ------------------------------------------------------------------


class Stopwatch:
    """Accumulates named wall times for the set-up phase."""

    def __init__(self) -> None:
        self.seconds: dict[str, float] = {}
        self._started = time.perf_counter()

    def add(self, name: str, seconds: float) -> None:
        self.seconds[name] = self.seconds.get(name, 0.0) + seconds

    def total(self) -> float:
        return time.perf_counter() - self._started
