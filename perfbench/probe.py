"""Host-speed probe: fixed work run by helper processes between rounds.

The benchmark divides every wall-clock timing by this probe, so that a
run made while the shared host was slow reads the same as one made
while it was fast.  The probe imports nothing from the program under
test.  A sample has up to two parts; each workload samples, and is
normalised by, the parts that match the work its program does
(``probe`` in ``config.json``):

- ``compute``: a pure-Python loop of string, dictionary and list work
  over a table of some tens of MB, so that it feels the host's cache
  pressure as the program's own data does.  It runs on each of
  ``cores`` helper processes in turn, then on all of them at once, so it
  loads as many cores as the workload's program uses and sees both each
  core's own speed and their speed under shared load.  Each helper
  times its loop with its own thread CPU clock, so waiting for a core or
  for the parent does not count.
- ``messages``: round trips of a short message between this process and
  each helper over a pipe, timed with the wall clock, since what they
  measure is how long a process takes to be woken and answer.  This is
  the cost that dominates the serving workloads' hops between threads
  and processes, and that a CPU-bound loop does not see.

It is sampled only between rounds, when the program has no request in
flight.  :class:`HostProbe` also reads how much CPU the program's own
threads and processes used while the probe ran; the caller fails the run
when that share is high, since work running beside the probe would slow
it and flatter the normalised figures.
"""

from __future__ import annotations

import multiprocessing
import os
import random
import statistics
import threading
import time

PARTS = ("compute", "messages")

#: Iterations of :func:`compute_loop` per run; about 10 ms on one core of a 2020s server.
COMPUTE_ITERATIONS = 6000
#: Entries of the table the loop reads; some tens of MB in each helper.
TABLE_ENTRIES = 150_000
#: Round trips to each helper per sample.
ROUND_TRIPS = 40

#: Quiescence before a sample: the program used under this share of one
#: core over a step of this length; waiting gives up after the limit.
QUIET_SHARE = 0.05
SETTLE_STEP_S = 0.002
SETTLE_LIMIT_S = 0.25


def make_table(entries: int = TABLE_ENTRIES) -> tuple[dict[str, int], list[str]]:
    """A fixed table of string keys, and its keys in insertion order."""
    rng = random.Random(1)
    keys = [f"k{rng.random():.12f}" for _ in range(entries)]
    return {key: i for i, key in enumerate(keys)}, keys


def compute_loop(table: dict[str, int], keys: list[str],
                 iterations: int = COMPUTE_ITERATIONS) -> int:
    """Look up, case-fold and fold random table entries; returns a checksum."""
    rng = random.Random(7)
    checksum = 0
    for _ in range(iterations):
        key = keys[rng.randrange(len(keys))]
        checksum = (checksum + table[key] + len(key.upper())) % 1_000_003
    return checksum


def _probe_worker(conn, iterations: int) -> None:
    """Helper process: time one loop per ``compute``, echo each ``echo``."""
    table, keys = make_table()
    compute_loop(table, keys, iterations)  # first-call warm-up
    conn.send("ready")
    while True:
        message = conn.recv()
        if message == "echo":
            conn.send("echo")
        elif message == "compute":
            cpu = time.thread_time_ns()
            compute_loop(table, keys, iterations)
            conn.send(time.thread_time_ns() - cpu)
        else:
            break
    conn.close()


def cpu_ns(path: str) -> int:
    """CPU time from a ``/proc/.../schedstat`` file, in ns; 0 once it is gone."""
    try:
        with open(path) as handle:
            return int(handle.read().split()[0])
    except (OSError, ValueError, IndexError):
        return 0


class HostProbe:
    """``cores`` helper processes that run the probe on demand.

    ``parts`` names the probe parts a sample runs; its value is their sum,
    in µs.  ``watch_pids`` are the program's own child processes (pool
    workers, shard workers); every thread of this process other than the
    one calling :meth:`sample` is watched as well.  Each sample records
    each part, their sum, and the program's CPU use during it as a share
    of the probe's cores.
    """

    def __init__(self, cores: int, parts: list[str],
                 iterations: int = COMPUTE_ITERATIONS) -> None:
        if cores <= 0:
            raise ValueError("the probe needs at least one core")
        if not parts or set(parts) - set(PARTS):
            raise ValueError(f"probe parts must be among {PARTS}, got {parts}")
        self.cores = cores
        self.parts = list(parts)
        self.watch_pids: list[int] = []
        self.samples_us: list[float] = []
        self.part_us: dict[str, list[float]] = {part: [] for part in self.parts}
        self.busy_pct: list[float] = []
        context = multiprocessing.get_context("spawn")
        self._conns = []
        self._procs = []
        try:
            for _ in range(cores):
                parent, child = context.Pipe()
                proc = context.Process(
                    target=_probe_worker, args=(child, iterations), daemon=True
                )
                proc.start()
                child.close()
                self._conns.append(parent)
                self._procs.append(proc)
            for conn in self._conns:
                if not conn.poll(60) or conn.recv() != "ready":
                    raise RuntimeError("probe helper did not start")
        except BaseException:
            self.close()
            raise

    def _program_cpu_ns(self) -> int:
        me = os.getpid()
        caller = threading.get_native_id()
        total = sum(cpu_ns(f"/proc/{pid}/schedstat") for pid in self.watch_pids)
        try:
            tids = [int(tid) for tid in os.listdir(f"/proc/{me}/task")]
        except OSError:
            tids = []
        return total + sum(
            cpu_ns(f"/proc/{me}/task/{tid}/schedstat") for tid in tids if tid != caller
        )

    def _run(self, conns) -> list[int]:
        for conn in conns:
            conn.send("compute")
        replies = []
        for conn in conns:
            if not conn.poll(60):
                raise RuntimeError("probe helper stopped answering")
            replies.append(conn.recv())
        return replies

    def _round_trips(self) -> float:
        """Wall time of ``ROUND_TRIPS`` echoes to each helper in turn, in µs."""
        started = time.perf_counter_ns()
        for conn in self._conns:
            for _ in range(ROUND_TRIPS):
                conn.send("echo")
                if not conn.poll(60):
                    raise RuntimeError("probe helper stopped answering")
                conn.recv()
        return (time.perf_counter_ns() - started) / 1000.0

    def settle(self) -> None:
        """Wait, at most ``SETTLE_LIMIT_S``, until the program's CPU use stops.

        A response can reach the benchmark a moment before the program has
        finished the bookkeeping around it; the probe waits for that to end.
        """
        deadline = time.perf_counter() + SETTLE_LIMIT_S
        before = self._program_cpu_ns()
        while time.perf_counter() < deadline:
            time.sleep(SETTLE_STEP_S)
            after = self._program_cpu_ns()
            if after - before < SETTLE_STEP_S * 1e9 * QUIET_SHARE:
                return
            before = after

    def _measure(self, part: str) -> float:
        """One part of a sample, in µs.

        ``compute`` is the mean loop CPU time of each helper alone and of
        all at once; ``messages`` is the round trips' wall time.
        """
        if part == "messages":
            return self._round_trips()
        replies = [reply for conn in self._conns for reply in self._run([conn])]
        if self.cores > 1:
            replies += self._run(self._conns)
        return statistics.fmean(replies) / 1000.0

    def sample(self) -> float:
        """Run the probe's parts and return their sum, in µs."""
        self.settle()
        busy_before = self._program_cpu_ns()
        started = time.perf_counter_ns()
        measured = {part: self._measure(part) for part in self.parts}
        window = time.perf_counter_ns() - started
        busy = self._program_cpu_ns() - busy_before
        for part, value in measured.items():
            self.part_us[part].append(value)
        value = sum(measured.values())
        self.samples_us.append(value)
        self.busy_pct.append(100.0 * busy / max(window * self.cores, 1))
        return value

    def close(self) -> None:
        """Stop the helpers and wait for each to end."""
        for conn in self._conns:
            try:
                conn.send("stop")
            except (OSError, ValueError):
                pass
        for proc in self._procs:
            proc.join(timeout=10)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=5)
        for conn in self._conns:
            conn.close()
        self._conns.clear()
        self._procs.clear()

    def __enter__(self) -> "HostProbe":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
